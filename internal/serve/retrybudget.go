package serve

import "dlsys/internal/invalid"

// Retry budgets, the SRE-practice defence against retry storms: each
// tenant (client class) may spend retries only out of a token bucket that
// is replenished by its *successes* — by default one retry token per ten
// served requests. Under healthy operation the budget is invisible
// (failures are rare, tokens accumulate to the burst cap); when the fleet
// saturates and successes stop, the bucket drains and retries stop with
// it, so the offered load decays back to the first-attempt arrival rate
// instead of multiplying by MaxAttempts. That cut is what breaks the
// metastable feedback loop X14 measures: without it, retries of failed
// work alone hold the queue past the deadline horizon long after the
// triggering flash crowd has passed.

// RetryBudgetConfig tunes the per-tenant retry token buckets.
type RetryBudgetConfig struct {
	// Disabled turns the budget off: every retry is allowed. This is the
	// budgets-off arm of X14.
	Disabled bool
	// Ratio is the number of retry tokens earned per successfully served
	// request (default 0.1 — retries may be ~10% of successful traffic).
	Ratio float64
	// Burst caps the tokens a tenant can bank (default 32), bounding the
	// retry burst a long quiet streak can finance.
	Burst float64
}

func (c *RetryBudgetConfig) defaults() {
	if c.Ratio <= 0 {
		c.Ratio = 0.1
	}
	if c.Burst <= 0 {
		c.Burst = 32
	}
}

func (c RetryBudgetConfig) validate() error {
	if c.Ratio > 1 {
		return invalid.New("serve", "Budget.Ratio", "retry/success ratio above 1 defeats the budget's purpose")
	}
	return nil
}

// retryBudget is the runtime state: one token balance per tenant. It is
// driven entirely by the deterministic event order (earn on serve, spend
// on retry), so replays are bit-identical.
type retryBudget struct {
	cfg    RetryBudgetConfig
	tokens []float64
}

func newRetryBudget(cfg RetryBudgetConfig, tenants int) *retryBudget {
	cfg.defaults()
	b := &retryBudget{cfg: cfg, tokens: make([]float64, tenants)}
	for i := range b.tokens {
		// Start with a full bucket so cold-start failures can retry.
		b.tokens[i] = cfg.Burst
	}
	return b
}

// earn credits one success for the tenant.
func (b *retryBudget) earn(tenant int) {
	t := b.tokens[tenant] + b.cfg.Ratio
	if t > b.cfg.Burst {
		t = b.cfg.Burst
	}
	b.tokens[tenant] = t
}

// allow spends one retry token if the tenant has one, reporting whether
// the retry may proceed. A disabled budget always allows.
func (b *retryBudget) allow(tenant int) bool {
	if b.cfg.Disabled {
		return true
	}
	// The half-ulp slack keeps repeated Ratio additions (0.1 ten times is
	// 0.9999...) from denying a fully earned token.
	if b.tokens[tenant] >= 1-1e-9 {
		b.tokens[tenant]--
		return true
	}
	return false
}
