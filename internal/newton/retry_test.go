package newton

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"petscfun3d/internal/euler"
	"petscfun3d/internal/krylov"
	"petscfun3d/internal/sparse"
)

// flakyPC wraps the ILU factory, failing selected build calls, to
// exercise the bounded step retry without touching the numerics of the
// attempts that do run.
func flakyPC(failCall func(n int) bool) PCFactory {
	inner := iluPC(0)
	n := 0
	return func(a *sparse.BCSR) (krylov.Preconditioner, error) {
		n++
		if failCall(n) {
			return nil, fmt.Errorf("injected preconditioner failure (build %d)", n)
		}
		return inner(a)
	}
}

// TestStepRetryRecovers: a transient preconditioner failure must be
// retried within the step (refreshing from a clean assembly) and leave
// the solve's convergence untouched; OnStepError observes the attempt.
func TestStepRetryRecovers(t *testing.T) {
	opts := DefaultOptions()
	opts.RelTol = 1e-6
	opts.MaxSteps = 60
	opts.StepRetries = 1
	s, q := buildSolver(t, 6, 5, 4, euler.NewIncompressible(), opts)
	s.PC = flakyPC(func(n int) bool { return n == 2 }) // step 1's first build
	var seen []string
	s.Hooks = &Hooks{OnStepError: func(step, attempt int, err error) {
		seen = append(seen, fmt.Sprintf("step=%d attempt=%d", step, attempt))
	}}
	res, err := s.Solve(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("retry run did not converge (final %g)", res.FinalRnorm)
	}
	if len(seen) != 1 || seen[0] != "step=1 attempt=0" {
		t.Fatalf("OnStepError observed %v, want one failure at step 1 attempt 0", seen)
	}
}

// TestStepRetriesExhaustedReturnPartialResult: a persistent failure
// must abort gracefully — the completed steps stay in the Result next
// to the error, and the error reports the attempts consumed.
func TestStepRetriesExhaustedReturnPartialResult(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxSteps = 60
	opts.StepRetries = 1
	s, q := buildSolver(t, 6, 5, 4, euler.NewIncompressible(), opts)
	s.PC = flakyPC(func(n int) bool { return n >= 3 }) // steps 0 and 1 work, step 2 never does
	res, err := s.Solve(q)
	if err == nil {
		t.Fatal("persistent failure did not abort the solve")
	}
	if !strings.Contains(err.Error(), "after 2 attempt(s)") {
		t.Fatalf("abort error does not report the attempts: %v", err)
	}
	if res == nil {
		t.Fatal("no partial result on graceful abort")
	}
	if len(res.Steps) != 2 {
		t.Fatalf("partial result kept %d steps, want the 2 completed ones", len(res.Steps))
	}
	if res.FinalRnorm <= 0 || res.InitialRnorm <= 0 {
		t.Fatalf("partial result lost its norms: initial %g final %g", res.InitialRnorm, res.FinalRnorm)
	}
}

// TestNonFiniteLinearSolveNamesStep: an operator that emits NaN fails
// the step's linear solve with krylov.ErrNonFinite, which reaches the
// caller through the step's error with the step named.
func TestNonFiniteLinearSolveNamesStep(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxSteps = 60
	s, q := buildSolver(t, 6, 5, 4, euler.NewIncompressible(), opts)
	applies := 0
	s.Hooks = &Hooks{WrapOperator: func(op krylov.Operator) krylov.Operator {
		return krylov.OperatorFunc(func(x, y []float64) {
			op.Apply(x, y)
			if applies++; applies > 30 { // clean through the first steps
				y[0] = math.NaN()
			}
		})
	}}
	res, err := s.Solve(q)
	if !errors.Is(err, krylov.ErrNonFinite) {
		t.Fatalf("err = %v, want krylov.ErrNonFinite", err)
	}
	step := len(res.Steps)
	if step == 0 || !strings.Contains(err.Error(), fmt.Sprintf("step %d ", step)) {
		t.Errorf("err %q does not name the failing step %d", err, step)
	}
}
