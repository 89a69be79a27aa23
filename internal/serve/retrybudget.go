package serve

// Retry budgets, the SRE-practice defence against retry storms: each
// tenant (client class) may spend retries only out of a token bucket that
// is replenished by its *successes* — one retry token per ten served
// requests. Under healthy operation the budget is invisible
// (failures are rare, tokens accumulate to the burst cap); when the fleet
// saturates and successes stop, the bucket drains and retries stop with
// it, so the offered load decays back to the first-attempt arrival rate
// instead of multiplying by the attempt count. That cut is what breaks the
// metastable feedback loop X14 measures: without it, retries of failed
// work alone hold the queue past the deadline horizon long after the
// triggering flash crowd has passed.

// RetryBudgetConfig tunes the per-tenant retry token buckets.
type RetryBudgetConfig struct {
	// Disabled turns the budget off: every retry is allowed. This is the
	// budgets-off arm of X14.
	Disabled bool
}

// The budget's fixed policy: retry tokens earned per served request (so
// retries may be ~10% of successful traffic), and the tokens a tenant can
// bank, which bounds the retry burst a long quiet streak can finance.
const (
	retryRatio = 0.1
	retryBurst = 32
)

// retryBudget is the runtime state: one token balance per tenant. It is
// driven entirely by the deterministic event order (earn on serve, spend
// on retry), so replays are bit-identical.
type retryBudget struct {
	disabled bool
	tokens   []float64
}

func newRetryBudget(cfg RetryBudgetConfig, tenants int) *retryBudget {
	b := &retryBudget{disabled: cfg.Disabled, tokens: make([]float64, tenants)}
	for i := range b.tokens {
		// Start with a full bucket so cold-start failures can retry.
		b.tokens[i] = retryBurst
	}
	return b
}

// earn credits one success for the tenant.
func (b *retryBudget) earn(tenant int) {
	t := b.tokens[tenant] + retryRatio
	if t > retryBurst {
		t = retryBurst
	}
	b.tokens[tenant] = t
}

// allow spends one retry token if the tenant has one, reporting whether
// the retry may proceed. A disabled budget always allows.
func (b *retryBudget) allow(tenant int) bool {
	if b.disabled {
		return true
	}
	// The half-ulp slack keeps repeated retryRatio additions (0.1 ten times is
	// 0.9999...) from denying a fully earned token.
	if b.tokens[tenant] >= 1-1e-9 {
		b.tokens[tenant]--
		return true
	}
	return false
}
