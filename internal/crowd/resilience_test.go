package crowd

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// scriptTransport replays a fixed fault sequence, one entry per delivery;
// entries beyond the script (and nil entries) deliver honestly.
type scriptTransport struct {
	faults []error
	i      int
}

func (s *scriptTransport) Deliver(q Question, w Worker, answer func() int) Delivery {
	var err error
	if s.i < len(s.faults) {
		err = s.faults[s.i]
	}
	s.i++
	if err != nil {
		return Delivery{Err: err}
	}
	return Delivery{Answer: answer()}
}

func TestFaultInjectorDeterministic(t *testing.T) {
	run := func() []Delivery {
		f := NewFaultInjector(FaultConfig{
			Seed:          7,
			AbandonRate:   0.3,
			TransientRate: 0.2,
			SpamRate:      0.2,
			MinLatency:    time.Microsecond,
			MaxLatency:    5 * time.Microsecond,
		})
		q := Boolean("x?", true)
		w := Worker{ID: 0, Accuracy: 1}
		var out []Delivery
		for i := 0; i < 200; i++ {
			out = append(out, f.Deliver(q, w, func() int { return q.Truth }))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d differs across same-seed runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestFaultInjectorRatesAndAccounting(t *testing.T) {
	f := NewFaultInjector(FaultConfig{Seed: 1, AbandonRate: 0.3, TransientRate: 0.2, SpamRate: 0.1})
	q := Boolean("x?", true)
	const trials = 5000
	// The honest answer is out of range, so a spam answer (drawn from the
	// options) is told apart from an honest delivery.
	var ab, tr, sp, ok int
	for i := 0; i < trials; i++ {
		d := f.Deliver(q, Worker{}, func() int { return -1 })
		switch {
		case d.Err == ErrAbandoned:
			ab++
		case d.Err == ErrTransient:
			tr++
		case d.Answer == -1:
			ok++
		default:
			sp++
		}
	}
	if ab+tr+sp+ok != trials {
		t.Fatalf("accounting does not add up: %d+%d+%d+%d != %d", ab, tr, sp, ok, trials)
	}
	check := func(name string, got int, rate float64) {
		frac := float64(got) / trials
		if frac < rate-0.03 || frac > rate+0.03 {
			t.Errorf("%s rate %.3f, want ~%.2f", name, frac, rate)
		}
	}
	check("abandon", ab, 0.3)
	check("transient", tr, 0.2)
	check("spam", sp, 0.1)
	check("delivered", ok, 0.4)
}

func TestZeroRateInjectorIdenticalToDirect(t *testing.T) {
	q := Question{Kind: TypeValidation, Options: []string{"a", "b", "c"}, Truth: 1, Difficulty: 0.3}
	run := func(t Transport) []int {
		c := New(10, 0.8, 99)
		c.SetTransport(t)
		var out []int
		for i := 0; i < 300; i++ {
			a, _ := c.AskContext(context.Background(), q)
			out = append(out, a)
		}
		return out
	}
	direct := run(nil)
	injected := run(NewFaultInjector(FaultConfig{Seed: 5}))
	for i := range direct {
		if direct[i] != injected[i] {
			t.Fatalf("answer %d diverged: direct=%d injected=%d", i, direct[i], injected[i])
		}
	}
}

func TestTransientRetriesSameWorkerWithBackoff(t *testing.T) {
	st := &scriptTransport{faults: []error{ErrTransient, ErrTransient}}
	c := Perfect(5)
	c.SetTransport(st)
	c.SetRetry(RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond, MaxBackoff: 2 * time.Microsecond})
	a, err := c.AskContext(context.Background(), Boolean("x?", true))
	if err != nil || a != 0 {
		t.Fatalf("AskContext = %d, %v", a, err)
	}
	s := c.Stats()
	if s.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", s.Retries)
	}
	// 2 failed attempts + 3 successful assignments were all posted (paid).
	if s.Assignments != 5 {
		t.Fatalf("Assignments = %d, want 5", s.Assignments)
	}
}

func TestAbandonmentReassignsFreshWorker(t *testing.T) {
	st := &scriptTransport{faults: []error{ErrAbandoned}}
	c := Perfect(5)
	c.SetTransport(st)
	c.SetRetry(RetryPolicy{BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond})
	a, err := c.AskContext(context.Background(), Boolean("x?", true))
	if err != nil || a != 0 {
		t.Fatalf("AskContext = %d, %v", a, err)
	}
	s := c.Stats()
	if s.Abandonments != 1 {
		t.Fatalf("Abandonments = %d, want 1", s.Abandonments)
	}
	if s.Assignments != 4 {
		t.Fatalf("Assignments = %d, want 4 (1 abandoned + 3 answered)", s.Assignments)
	}
}

func TestRetryBackoffCappedExponential(t *testing.T) {
	r := RetryPolicy{BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond}
	want := []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		8 * time.Millisecond, 8 * time.Millisecond, 8 * time.Millisecond,
	}
	for i, w := range want {
		if got := r.Backoff(i + 1); got != w {
			t.Fatalf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestEscalationTopsUpToCap(t *testing.T) {
	// MinMargin 1.1 is unreachable, so every question escalates to the cap.
	c := Perfect(10)
	c.SetEscalation(EscalationPolicy{MinMargin: 1.1, MaxAssignments: 7})
	a, err := c.AskContext(context.Background(), Boolean("x?", true))
	if err != nil || a != 0 {
		t.Fatalf("AskContext = %d, %v", a, err)
	}
	s := c.Stats()
	if s.Escalations != 4 {
		t.Fatalf("Escalations = %d, want 4 (base 3 → cap 7)", s.Escalations)
	}
	if s.Assignments != 7 {
		t.Fatalf("Assignments = %d, want 7", s.Assignments)
	}
}

func TestEscalationStopsWhenMarginConvincing(t *testing.T) {
	// A unanimous perfect crowd reaches margin 1.0 immediately: no escalation.
	c := Perfect(10)
	c.SetEscalation(EscalationPolicy{MinMargin: 0.5, MaxAssignments: 9})
	c.AskContext(context.Background(), Boolean("x?", true))
	if s := c.Stats(); s.Escalations != 0 || s.Assignments != 3 {
		t.Fatalf("unexpected escalation: %+v", s)
	}
}

func TestQuestionBudgetExhaustion(t *testing.T) {
	c := Perfect(5)
	c.SetBudget(NewBudget(2, 0))
	q := Boolean("x?", true)
	for i := 0; i < 2; i++ {
		if _, err := c.AskContext(context.Background(), q); err != nil {
			t.Fatalf("question %d under budget failed: %v", i, err)
		}
	}
	if _, err := c.AskContext(context.Background(), q); !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestAssignmentBudgetPartialVotesStillDecide(t *testing.T) {
	c := Perfect(5)
	c.SetBudget(NewBudget(0, 4))
	q := Boolean("x?", true)
	if _, err := c.AskContext(context.Background(), q); err != nil {
		t.Fatalf("first question failed: %v", err)
	}
	// One assignment left: the second question gets a single vote, which
	// still decides it.
	a, err := c.AskContext(context.Background(), q)
	if err != nil || a != 0 {
		t.Fatalf("partial-vote question = %d, %v; want 0, nil", a, err)
	}
	// Nothing left: the third question cannot collect any vote.
	if _, err := c.AskContext(context.Background(), q); !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestDeadlineRespectedUnderLatency(t *testing.T) {
	c := Perfect(5)
	c.SetTransport(NewFaultInjector(FaultConfig{
		Seed: 3, MinLatency: 50 * time.Millisecond, MaxLatency: 60 * time.Millisecond,
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.AskContext(ctx, Boolean("x?", true))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("AskContext overran a 5ms deadline by %v", el)
	}
	if c.Stats().Timeouts == 0 {
		t.Fatal("deadline interruption not counted as a timeout")
	}
}

func TestAssignmentTimeoutTreatedAsAbandonment(t *testing.T) {
	c := Perfect(5)
	c.SetTransport(NewFaultInjector(FaultConfig{Seed: 4, MinLatency: 20 * time.Millisecond, MaxLatency: 25 * time.Millisecond}))
	c.SetRetry(RetryPolicy{
		MaxAttempts:       3,
		BaseBackoff:       time.Microsecond,
		MaxBackoff:        time.Microsecond,
		AssignmentTimeout: time.Millisecond,
	})
	_, err := c.AskContext(context.Background(), Boolean("x?", true))
	if !errors.Is(err, ErrNoAnswers) {
		t.Fatalf("err = %v, want ErrNoAnswers", err)
	}
	s := c.Stats()
	// 3 base slots x 3 attempts, all timed out; 2 retries per slot.
	if s.Timeouts != 9 || s.Retries != 6 {
		t.Fatalf("Timeouts = %d, Retries = %d; want 9, 6", s.Timeouts, s.Retries)
	}
}

func TestCanceledContextFailsFast(t *testing.T) {
	c := Perfect(5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.AskContext(ctx, Boolean("x?", true)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if s := c.Stats(); s.Questions != 0 {
		t.Fatalf("canceled question was accounted: %+v", s)
	}
}

func TestChaosNeverPanicsAlwaysTerminates(t *testing.T) {
	q := Question{Kind: TypeValidation, Options: []string{"a", "b", "c"}, Truth: 0, Difficulty: 0.2}
	for seed := int64(0); seed < 10; seed++ {
		c := New(8, 0.8, seed)
		c.SetTransport(NewFaultInjector(FaultConfig{
			Seed:          seed,
			AbandonRate:   0.35,
			TransientRate: 0.15,
			SpamRate:      0.1,
			MinLatency:    100 * time.Microsecond,
			MaxLatency:    500 * time.Microsecond,
		}))
		c.SetRetry(RetryPolicy{BaseBackoff: 50 * time.Microsecond, MaxBackoff: 200 * time.Microsecond})
		c.SetEscalation(EscalationPolicy{MinMargin: 0.4, MaxAssignments: 7})
		c.SetBudget(NewBudget(50, 200))
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		start := time.Now()
		for i := 0; i < 60; i++ {
			_, err := c.AskContext(ctx, q)
			if err != nil && !errors.Is(err, ErrBudget) && !errors.Is(err, ErrNoAnswers) &&
				!errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("seed %d: unexpected error %v", seed, err)
			}
		}
		cancel()
		if el := time.Since(start); el > 3*time.Second {
			t.Fatalf("seed %d: chaos run overran its deadline: %v", seed, el)
		}
	}
}

// Satellite: shared rng and stats are mutex-guarded; run with -race.
func TestConcurrentAskIsRaceFree(t *testing.T) {
	c := New(10, 0.85, 17)
	c.SetTransport(NewFaultInjector(FaultConfig{Seed: 17, AbandonRate: 0.1, TransientRate: 0.1}))
	c.SetRetry(RetryPolicy{BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond})
	q := Boolean("x?", true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c.AskContext(context.Background(), q)
				_ = c.Stats()
			}
		}()
	}
	wg.Wait()
	if got := c.Stats().Questions; got != 400 {
		t.Fatalf("Questions = %d, want 400", got)
	}
}

func TestVoteMarginAndDecide(t *testing.T) {
	if m := voteMargin(nil); m != 0 {
		t.Fatalf("empty margin = %f", m)
	}
	votes := []int{0, 0, 1}
	if m := voteMargin(votes); m < 0.32 || m > 0.34 {
		t.Fatalf("margin = %f, want ~1/3", m)
	}
	q := Question{Options: []string{"a", "b"}}
	if decide(q, votes) != 0 {
		t.Fatal("majority should win")
	}
	// Ties break toward the lowest option index.
	if decide(q, []int{1, 0}) != 0 {
		t.Fatal("tie must break toward option 0")
	}
}
