package crowd

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// Transport faults. ErrAbandoned and ErrTransient are the per-assignment
// faults a Transport may report; the remaining errors are question-level
// outcomes surfaced by AskContext.
var (
	// ErrAbandoned reports that the assigned worker walked away without
	// answering; the assignment must be re-posted to a fresh worker.
	ErrAbandoned = errors.New("crowd: assignment abandoned")
	// ErrTransient reports a retryable delivery failure (market hiccup,
	// network error); the same worker can be retried after a backoff.
	ErrTransient = errors.New("crowd: transient transport error")
	// ErrBudget reports that the question or assignment budget is exhausted
	// before any answer could be collected.
	ErrBudget = errors.New("crowd: budget exhausted")
	// ErrNoAnswers reports that every assignment for a question failed
	// permanently (all retries exhausted) without budget or deadline
	// pressure.
	ErrNoAnswers = errors.New("crowd: no assignments completed")
)

// Delivery is the outcome of routing one assignment through a Transport:
// either an answer (after Latency) or a fault.
type Delivery struct {
	// Answer is the worker's chosen option index; meaningless when Err is
	// non-nil.
	Answer int
	// Latency is the simulated time between posting the assignment and the
	// answer (or fault) arriving. AskContext charges it against the
	// context's deadline.
	Latency time.Duration
	// Err is nil, ErrAbandoned, or ErrTransient.
	Err error
}

// Transport stands between AskContext and the worker pool: every assignment is
// routed through it. The production default (nil transport) delivers
// instantly and never fails; a FaultInjector simulates an unreliable crowd.
//
// answer lazily draws the worker's true answer from the crowd's seeded rng;
// transports that drop or spoof the assignment must not call it, so the
// answer stream stays untouched by injected faults.
type Transport interface {
	Deliver(q Question, w Worker, answer func() int) Delivery
}

// directTransport is the nil-transport behaviour: instant, faultless.
type directTransport struct{}

func (directTransport) Deliver(q Question, w Worker, answer func() int) Delivery {
	return Delivery{Answer: answer()}
}

// FaultConfig parameterises a FaultInjector. All rates are per-assignment
// probabilities in [0,1]; they are evaluated in order (abandon, transient,
// spam), so their sum should stay ≤ 1.
type FaultConfig struct {
	// Seed drives the injector's private rng. Fault draws never consume the
	// crowd's answer rng, so a zero-rate injector is behaviourally identical
	// to the direct transport.
	Seed int64
	// AbandonRate is the probability the worker abandons the assignment.
	AbandonRate float64
	// TransientRate is the probability of a retryable delivery error.
	TransientRate float64
	// SpamRate is the probability the worker answers uniformly at random
	// (spam/adversarial worker) — indistinguishable from an honest answer.
	SpamRate float64
	// MinLatency/MaxLatency bound the simulated per-assignment latency
	// (uniform draw). Zero values mean instant delivery.
	MinLatency time.Duration
	MaxLatency time.Duration
}

// FaultInjector is a deterministic, seeded chaos transport: abandonment,
// transient errors, spam answers and latency, all drawn from its own rng so
// runs are reproducible and the crowd's answer stream is undisturbed.
type FaultInjector struct {
	mu  sync.Mutex
	cfg FaultConfig
	rng *rand.Rand
}

// NewFaultInjector builds a FaultInjector from cfg.
func NewFaultInjector(cfg FaultConfig) *FaultInjector {
	return &FaultInjector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Deliver implements Transport.
func (f *FaultInjector) Deliver(q Question, w Worker, answer func() int) Delivery {
	f.mu.Lock()
	defer f.mu.Unlock()
	d := Delivery{Latency: f.latency()}
	u := f.rng.Float64()
	switch {
	case u < f.cfg.AbandonRate:
		d.Err = ErrAbandoned
	case u < f.cfg.AbandonRate+f.cfg.TransientRate:
		d.Err = ErrTransient
	case u < f.cfg.AbandonRate+f.cfg.TransientRate+f.cfg.SpamRate:
		n := len(q.Options)
		if n == 0 {
			n = 1
		}
		d.Answer = f.rng.Intn(n)
	default:
		d.Answer = answer()
	}
	return d
}

// latency draws a uniform latency in [MinLatency, MaxLatency]. Caller holds
// f.mu.
func (f *FaultInjector) latency() time.Duration {
	if f.cfg.MaxLatency <= 0 {
		return f.cfg.MinLatency
	}
	span := f.cfg.MaxLatency - f.cfg.MinLatency
	if span <= 0 {
		return f.cfg.MinLatency
	}
	return f.cfg.MinLatency + time.Duration(f.rng.Int63n(int64(span)+1))
}
