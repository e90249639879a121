package experiment

import (
	"testing"
	"time"
)

// TestRetryJitterDeterministic: the jittered backoff is a pure function of
// (policy, attempt, unit seed) — the property that keeps chaos runs
// bit-reproducible — and distinct units get distinct schedules.
func TestRetryJitterDeterministic(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, MaxDelay: 500 * time.Millisecond}
	seed := RetrySeed("figure-5", 7)
	for k := 1; k <= 3; k++ {
		if a, b := p.delay(k, seed), p.delay(k, seed); a != b {
			t.Fatalf("delay(%d) not deterministic: %v vs %v", k, a, b)
		}
	}
	if RetrySeed("figure-5", 7) != seed {
		t.Fatal("RetrySeed not deterministic")
	}
	if RetrySeed("figure-5", 8) == seed || RetrySeed("figure-6", 7) == seed {
		t.Fatal("distinct units share a jitter seed")
	}
}

// TestRetryJitterBoundsAndSpread is the distribution test: across many
// units the jittered delay (default Jitter = 0.5) must stay inside
// (d/2, d], never exceed the synchronized delay, and actually spread over
// the jitter window — each quarter of (d/2, d] must be populated, so
// synchronized retry storms cannot re-form.
func TestRetryJitterBoundsAndSpread(t *testing.T) {
	p := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	const k = 2
	full := 200 * time.Millisecond // BaseDelay << (k-1)
	quarters := [4]int{}
	distinct := map[time.Duration]bool{}
	for gi := 0; gi < 1000; gi++ {
		d := p.delay(k, RetrySeed("spread", gi))
		if d <= full/2 || d > full {
			t.Fatalf("unit %d: delay %v outside (%v, %v]", gi, d, full/2, full)
		}
		// Quarter index within the jitter window (full/2, full].
		q := int(4 * float64(d-full/2-1) / float64(full/2))
		quarters[q]++
		distinct[d] = true
	}
	for q, n := range quarters {
		if n == 0 {
			t.Errorf("quarter %d of the jitter window is empty (no spread)", q)
		}
	}
	if len(distinct) < 100 {
		t.Errorf("only %d distinct delays over 1000 units", len(distinct))
	}
}

// TestRetryJitterModes: Jitter < 0 restores the synchronized exponential
// schedule exactly; the cap still bounds jittered delays; Jitter > 1
// clamps to a full-range jitter that keeps delays positive.
func TestRetryJitterModes(t *testing.T) {
	seed := RetrySeed("modes", 0)
	off := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 500 * time.Millisecond, Jitter: -1}
	for k, want := range map[int]time.Duration{
		1: 10 * time.Millisecond,
		2: 20 * time.Millisecond,
		3: 40 * time.Millisecond,
		9: 500 * time.Millisecond, // cap
	} {
		if got := off.delay(k, seed); got != want {
			t.Errorf("jitter off: delay(%d) = %v, want %v", k, got, want)
		}
	}
	capped := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: 150 * time.Millisecond}
	for gi := 0; gi < 100; gi++ {
		if d := capped.delay(5, RetrySeed("cap", gi)); d > 150*time.Millisecond {
			t.Fatalf("jittered delay %v exceeds the cap", d)
		}
	}
	wide := RetryPolicy{BaseDelay: 8 * time.Millisecond, Jitter: 3}
	for gi := 0; gi < 100; gi++ {
		d := wide.delay(1, RetrySeed("wide", gi))
		if d <= 0 || d > 8*time.Millisecond {
			t.Fatalf("clamped jitter: delay %v outside (0, 8ms]", d)
		}
	}
}
