package crowd

import (
	"context"
	"testing"
	"time"
)

// TestBackoffPure: RetryPolicy.Backoff is the deterministic pre-jitter
// schedule — base, doubling, capped — and never consults any rng.
func TestBackoffPure(t *testing.T) {
	r := RetryPolicy{BaseBackoff: 4 * time.Millisecond, MaxBackoff: 20 * time.Millisecond}
	want := []time.Duration{
		4 * time.Millisecond,  // n=1
		8 * time.Millisecond,  // n=2
		16 * time.Millisecond, // n=3
		20 * time.Millisecond, // n=4 capped
		20 * time.Millisecond, // n=5 stays capped
	}
	for i, w := range want {
		if got := r.Backoff(i + 1); got != w {
			t.Fatalf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
		if again := r.Backoff(i + 1); again != w {
			t.Fatalf("Backoff(%d) not pure: %v then %v", i+1, w, again)
		}
	}
}

// TestJitteredBackoffBounds: with the default jitter (0.5) every drawn wait
// lands in [d/2, d], and the draws actually vary (the jitter is real, not a
// constant scale).
func TestJitteredBackoffBounds(t *testing.T) {
	c := New(5, 0.8, 42)
	r := RetryPolicy{BaseBackoff: 8 * time.Millisecond, MaxBackoff: 64 * time.Millisecond}
	for n := 1; n <= 5; n++ {
		d := r.Backoff(n)
		distinct := map[time.Duration]bool{}
		c.mu.Lock()
		for i := 0; i < 200; i++ {
			got := c.jitteredBackoff(r, n)
			if got < d/2 || got > d {
				c.mu.Unlock()
				t.Fatalf("jitteredBackoff(n=%d) = %v outside [%v, %v]", n, got, d/2, d)
			}
			distinct[got] = true
		}
		c.mu.Unlock()
		if len(distinct) < 2 {
			t.Fatalf("jitteredBackoff(n=%d): 200 draws all equal %v — jitter inert", n, d)
		}
	}
}

// TestJitterDisabled: a negative Jitter turns the randomization off —
// jitteredBackoff collapses to the pure schedule.
func TestJitterDisabled(t *testing.T) {
	c := New(5, 0.8, 42)
	r := RetryPolicy{BaseBackoff: 8 * time.Millisecond, MaxBackoff: 64 * time.Millisecond, Jitter: -1}
	c.mu.Lock()
	defer c.mu.Unlock()
	for n := 1; n <= 5; n++ {
		if got, want := c.jitteredBackoff(r, n), r.Backoff(n); got != want {
			t.Fatalf("disabled jitter: jitteredBackoff(n=%d) = %v, want %v", n, got, want)
		}
	}
}

// TestJitterClamped: Jitter > 1 clamps to 1, so waits stay in [0, d] instead
// of going negative.
func TestJitterClamped(t *testing.T) {
	c := New(5, 0.8, 42)
	r := RetryPolicy{BaseBackoff: 8 * time.Millisecond, MaxBackoff: 64 * time.Millisecond, Jitter: 5}
	c.mu.Lock()
	defer c.mu.Unlock()
	d := r.Backoff(2)
	for i := 0; i < 200; i++ {
		if got := c.jitteredBackoff(r, 2); got < 0 || got > d {
			t.Fatalf("clamped jitter draw %v outside [0, %v]", got, d)
		}
	}
}

// TestJitterSeededDeterminism: the jitter stream is a pure function of the
// crowd seed — same seed, same waits; different seed, different waits.
func TestJitterSeededDeterminism(t *testing.T) {
	draw := func(seed int64) []time.Duration {
		c := New(5, 0.8, seed)
		r := RetryPolicy{BaseBackoff: 8 * time.Millisecond, MaxBackoff: 64 * time.Millisecond}
		c.mu.Lock()
		defer c.mu.Unlock()
		out := make([]time.Duration, 64)
		for i := range out {
			out[i] = c.jitteredBackoff(r, 1+i%4)
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
	other := draw(8)
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical jitter streams")
	}
}

// TestJitterDoesNotPerturbDecisions: draining the backoff rng must leave the
// decision stream untouched — two same-seed crowds answer identically even
// when one of them has drawn hundreds of jitter values in between. This is
// the invariant that keeps differential reports byte-identical with retries
// (and their jitter) on or off.
func TestJitterDoesNotPerturbDecisions(t *testing.T) {
	questions := make([]Question, 40)
	for i := range questions {
		questions[i] = Question{
			Prompt:     "q",
			Options:    []string{"a", "b", "c"},
			Truth:      i % 3,
			Difficulty: 0.4,
		}
	}
	ask := func(drainJitter bool) []int {
		c := New(5, 0.7, 99)
		r := RetryPolicy{BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond}
		out := make([]int, 0, len(questions))
		for _, q := range questions {
			if drainJitter {
				c.mu.Lock()
				for i := 0; i < 17; i++ {
					c.jitteredBackoff(r, 1)
				}
				c.mu.Unlock()
			}
			a, _ := c.AskContext(context.Background(), q)
			out = append(out, a)
		}
		return out
	}
	plain, drained := ask(false), ask(true)
	for i := range plain {
		if plain[i] != drained[i] {
			t.Fatalf("question %d: answer %d with jitter drained vs %d without — jitter leaked into decisions", i, drained[i], plain[i])
		}
	}
}
