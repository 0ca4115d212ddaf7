package fabric

import "repro/internal/netsim"

// ConvergeConfig bounds the converge loop: a fixed attempt budget with
// exponential backoff between rounds.
type ConvergeConfig struct {
	// Budget is the maximum diff/apply attempts (default 5).
	Budget int
	// Backoff is the delay before the second attempt (default 10ms);
	// converge doubles it before each further attempt.
	Backoff netsim.Time
	// ApplyDelay inserts simulated time between reading the diff and
	// applying it, widening the window in which a fault can race the
	// apply.  Zero (the default) diffs and applies back-to-back.
	ApplyDelay netsim.Time
}

func (c ConvergeConfig) resolve() ConvergeConfig {
	if c.Budget <= 0 {
		c.Budget = 5
	}
	if c.Backoff <= 0 {
		c.Backoff = 10 * netsim.Millisecond
	}
	return c
}

// Round records one converge attempt.
type Round struct {
	// At is the simulated time the attempt's apply finished.
	At netsim.Time
	// Ops is how many mutations the attempt's diff wanted.
	Ops int
	// Applied is how many landed and verified.
	Applied int
	// Errors are the attempt's per-device failures.
	Errors []DeviceError
}

// ConvergeResult is the outcome of a converge run.
type ConvergeResult struct {
	// Converged reports that a final Verify read every device back at
	// spec, field-for-field.
	Converged bool
	// Attempts is how many diff/apply rounds ran.
	Attempts int
	// OpsApplied is the total mutations that landed across all rounds.
	OpsApplied int
	// Rounds records each attempt.
	Rounds []Round
	// Pending holds the devices still short of spec when the run ended
	// — partial convergence is reported, never silently dropped.
	Pending []DeviceError
	// Detours holds the informational detour ops from the last diff:
	// reflex-installed rewrites the converge recognized and left in
	// place.  A run can be Converged with standing Detours; the
	// operator ratifies them into spec or waits for the reflex revert.
	Detours []Op
	// BudgetExhausted distinguishes "gave up" from "nothing retryable
	// was left".
	BudgetExhausted bool
}

// Converge drives the fabric to spec: diff, apply, verify, and — when
// devices fail retryably (dark, epoch-raced, rolled back) — retry on
// the simulation clock with exponential backoff until the budget runs
// out.  done is called exactly once with the result; it fires
// synchronously (before Converge returns) when the first attempt
// converges with no ApplyDelay, and from a scheduled event otherwise,
// so callers drive the simulation with sim.RunUntil either way.
func (c *Controller) Converge(spec Spec, cfg ConvergeConfig, done func(ConvergeResult)) {
	cfg = cfg.resolve()
	res := &ConvergeResult{}
	c.convergeAttempt(spec, cfg, cfg.Backoff, res, done)
}

func (c *Controller) convergeAttempt(spec Spec, cfg ConvergeConfig, backoff netsim.Time, res *ConvergeResult, done func(ConvergeResult)) {
	cs, diffErrs, err := c.Diff(spec)
	if err != nil {
		res.Pending = append(res.Pending, DeviceError{Kind: ErrSpecInvalid, Detail: err.Error()})
		done(*res)
		return
	}

	apply := func() {
		res.Attempts++
		rep := c.Apply(cs)
		round := Round{
			At:      c.sim.Now(),
			Ops:     cs.Mutations(),
			Applied: rep.OpsApplied(),
			Errors:  append(diffErrs, rep.Errors()...),
		}
		res.Detours = cs.Detours()
		res.OpsApplied += round.Applied
		res.Rounds = append(res.Rounds, round)

		if len(round.Errors) == 0 {
			// Clean apply: declare convergence only if a full re-read
			// agrees the live state equals the spec.
			if pending := c.Verify(spec); len(pending) > 0 {
				round.Errors = pending
				res.Rounds[len(res.Rounds)-1] = round
			} else {
				res.Converged = true
				res.Pending = nil
				done(*res)
				return
			}
		}

		res.Pending = round.Errors
		retryable := false
		for _, e := range round.Errors {
			if e.Kind.Retryable() {
				retryable = true
				break
			}
		}
		if !retryable || res.Attempts >= cfg.Budget {
			res.BudgetExhausted = retryable
			done(*res)
			return
		}
		c.sim.After(backoff, func() { c.convergeAttempt(spec, cfg, 2*backoff, res, done) })
	}

	if cfg.ApplyDelay > 0 {
		c.sim.After(cfg.ApplyDelay, apply)
	} else {
		apply()
	}
}
