package serve

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"deadlinedist/internal/metrics"
	"deadlinedist/internal/obs"
)

// This file is the server's SLO layer: latency classes, per-class error
// budgets, and multi-window burn-rate alerting in the SRE style. Every
// request declares (or defaults into) a latency class; each class has a
// latency objective and an availability target, and the tracker keeps two
// sliding windows of good/bad counts per class. The burn rate —
// badFraction / (1 - target) — says how fast the class is spending its
// error budget: 1.0 burns exactly the budget over the SLO period, 10x
// exhausts a 30-day budget in 3 days. Alerts follow the multi-window
// multi-burn-rate recipe: paging requires BOTH the fast and the slow
// window above PageBurn (fast alone is noise, slow alone is stale), and
// the alert ladder moves one state per evaluation so every incident
// passes through ok → warning → page observably.
//
// What counts as "bad" is deliberate: server faults (status >= 500) and
// 200s that exceeded the class objective. Client faults (400) are the
// caller's problem, and sheds (429) are excluded because counting them
// would close a positive feedback loop — shed traffic raises burn, burn
// raises ladder pressure, pressure sheds more traffic — and the ladder
// would ratchet to TierShed and stay there.

// LatencyClass is a request's declared latency expectation, ordered from
// most to least latency-sensitive.
type LatencyClass int

const (
	LatencyInteractive LatencyClass = iota
	LatencyStandard
	LatencyBatch
	numLatencyClasses
)

func (c LatencyClass) String() string {
	switch c {
	case LatencyInteractive:
		return "interactive"
	case LatencyStandard:
		return "standard"
	default:
		return "batch"
	}
}

// parseLatencyClass resolves the wire spelling of a class.
func parseLatencyClass(s string) (LatencyClass, bool) {
	switch s {
	case "interactive":
		return LatencyInteractive, true
	case "standard":
		return LatencyStandard, true
	case "batch":
		return LatencyBatch, true
	}
	return 0, false
}

// SLOClassConfig is one latency class's contract.
type SLOClassConfig struct {
	// Objective is the class's latency objective: a 200 slower than this
	// spends error budget.
	Objective time.Duration
	// Target is the availability target in (0, 1): the fraction of
	// requests that must be good. The error budget is 1 - Target.
	Target float64
	// MaxBudget clamps the computation budget of requests in this class
	// (0 = the server's MaxBudget). Interactive requests asking for a
	// 10-second budget get the class clamp instead: a class is a promise
	// in both directions.
	MaxBudget time.Duration
}

// SLOConfig parameterizes the server's SLO tracking. The zero value works:
// withDefaults fills conventional objectives and the standard
// multi-window burn thresholds.
type SLOConfig struct {
	// Interactive, Standard, Batch are the three classes' contracts.
	Interactive, Standard, Batch SLOClassConfig
	// DefaultClass is assigned to requests that declare no class.
	DefaultClass LatencyClass
	// FastWindow and SlowWindow are the two burn-rate windows (default
	// 5m and 1h). Paging requires both above PageBurn.
	FastWindow, SlowWindow time.Duration
	// WarnBurn and PageBurn are the burn-rate thresholds (default 2 and
	// 10) of the warning and page alert states.
	WarnBurn, PageBurn float64
	// MinSamples gates alerting and burn-driven ladder pressure: below
	// this many eligible requests in the fast window, burn is reported
	// but drives nothing (default 10). Sparse traffic must not page.
	MinSamples int64
}

func (c SLOConfig) withDefaults(serverMax time.Duration) SLOConfig {
	def := func(cc *SLOClassConfig, obj time.Duration) {
		if cc.Objective <= 0 {
			cc.Objective = obj
		}
		if cc.Target <= 0 || cc.Target >= 1 {
			cc.Target = 0.99
		}
		if cc.MaxBudget <= 0 || cc.MaxBudget > serverMax {
			cc.MaxBudget = serverMax
		}
	}
	def(&c.Interactive, 500*time.Millisecond)
	def(&c.Standard, 2*time.Second)
	def(&c.Batch, 30*time.Second)
	if c.FastWindow <= 0 {
		c.FastWindow = 5 * time.Minute
	}
	if c.SlowWindow <= c.FastWindow {
		c.SlowWindow = 12 * c.FastWindow
	}
	if c.WarnBurn <= 0 {
		c.WarnBurn = 2
	}
	if c.PageBurn <= c.WarnBurn {
		c.PageBurn = 5 * c.WarnBurn
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 10
	}
	return c
}

// class returns the contract of one class (post-defaults).
func (c SLOConfig) class(lc LatencyClass) SLOClassConfig {
	switch lc {
	case LatencyInteractive:
		return c.Interactive
	case LatencyStandard:
		return c.Standard
	default:
		return c.Batch
	}
}

// ParseSLO parses the -slo flag: comma-separated tokens, each either a
// class contract "class=objective[/target[/maxbudget]]" or a knob
// "fast=5m", "slow=1h", "warn=2", "page=10", "min=10", "default=class".
//
//	interactive=250ms/0.999/500ms,standard=2s,fast=1m,page=14
func ParseSLO(spec string) (SLOConfig, error) {
	var cfg SLOConfig
	if spec == "" {
		return cfg, nil
	}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		k, v, ok := strings.Cut(tok, "=")
		if !ok {
			return cfg, fmt.Errorf("slo: token %q is not key=value", tok)
		}
		switch k {
		case "interactive", "standard", "batch":
			cc, err := parseClassSpec(v)
			if err != nil {
				return cfg, fmt.Errorf("slo: class %s: %w", k, err)
			}
			switch k {
			case "interactive":
				cfg.Interactive = cc
			case "standard":
				cfg.Standard = cc
			default:
				cfg.Batch = cc
			}
		case "fast", "slow":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return cfg, fmt.Errorf("slo: bad window %s=%q", k, v)
			}
			if k == "fast" {
				cfg.FastWindow = d
			} else {
				cfg.SlowWindow = d
			}
		case "warn", "page":
			f, err := strconv.ParseFloat(v, 64)
			// Written so NaN fails too; +Inf would silence the alert.
			if err != nil || !(f > 0) || math.IsInf(f, 1) {
				return cfg, fmt.Errorf("slo: bad burn threshold %s=%q", k, v)
			}
			if k == "warn" {
				cfg.WarnBurn = f
			} else {
				cfg.PageBurn = f
			}
		case "min":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 1 {
				return cfg, fmt.Errorf("slo: bad min=%q", v)
			}
			cfg.MinSamples = n
		case "default":
			lc, ok := parseLatencyClass(v)
			if !ok {
				return cfg, fmt.Errorf("slo: unknown default class %q", v)
			}
			cfg.DefaultClass = lc
		default:
			return cfg, fmt.Errorf("slo: unknown key %q", k)
		}
	}
	return cfg, nil
}

// parseClassSpec parses "objective[/target[/maxbudget]]".
func parseClassSpec(v string) (SLOClassConfig, error) {
	var cc SLOClassConfig
	parts := strings.Split(v, "/")
	if len(parts) > 3 {
		return cc, fmt.Errorf("want objective[/target[/maxbudget]], got %q", v)
	}
	obj, err := time.ParseDuration(parts[0])
	if err != nil || obj <= 0 {
		return cc, fmt.Errorf("bad objective %q", parts[0])
	}
	cc.Objective = obj
	if len(parts) > 1 {
		t, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || !(t > 0 && t < 1) { // NaN fails too
			return cc, fmt.Errorf("bad target %q (want (0,1))", parts[1])
		}
		cc.Target = t
	}
	if len(parts) > 2 {
		mb, err := time.ParseDuration(parts[2])
		if err != nil || mb <= 0 {
			return cc, fmt.Errorf("bad max budget %q", parts[2])
		}
		cc.MaxBudget = mb
	}
	return cc, nil
}

// Alert states of the per-class burn ladder.
const (
	alertOK int32 = iota
	alertWarning
	alertPage
)

func alertName(s int32) string {
	switch s {
	case alertWarning:
		return "warning"
	case alertPage:
		return "page"
	}
	return "ok"
}

// ringSlots is the resolution of each burn window: counts rotate through
// this many slots, so a window forgets its past with 1/ringSlots
// granularity instead of resetting wholesale.
const ringSlots = 60

// burnRing is one sliding window of good/bad counts: ringSlots slots of
// window/ringSlots each, rotated lazily against the clock. Guarded by its
// classTracker's mutex.
type burnRing struct {
	slot      time.Duration
	seq       int64 // slot sequence number of slots[cur]
	cur       int
	good, bad [ringSlots]int64
}

func newBurnRing(window time.Duration) *burnRing {
	slot := window / ringSlots
	if slot <= 0 {
		slot = time.Millisecond
	}
	return &burnRing{slot: slot, seq: math.MinInt64}
}

// rotate advances the ring to now, zeroing slots the clock skipped.
func (r *burnRing) rotate(now time.Time) {
	seq := now.UnixNano() / int64(r.slot)
	if r.seq == math.MinInt64 {
		r.seq = seq
		return
	}
	for ; r.seq < seq; r.seq++ {
		r.cur = (r.cur + 1) % ringSlots
		r.good[r.cur], r.bad[r.cur] = 0, 0
	}
}

func (r *burnRing) add(now time.Time, bad bool) {
	r.rotate(now)
	if bad {
		r.bad[r.cur]++
	} else {
		r.good[r.cur]++
	}
}

func (r *burnRing) sums(now time.Time) (good, bad int64) {
	r.rotate(now)
	for i := 0; i < ringSlots; i++ {
		good += r.good[i]
		bad += r.bad[i]
	}
	return good, bad
}

// classTracker is one latency class's live SLO state.
type classTracker struct {
	cfg SLOClassConfig

	latency metrics.Histogram // all eligible requests, for RED p50/p95/p99

	mu          sync.Mutex
	fast, slow  *burnRing
	served, bad int64
	state       int32
	transitions [3]int64 // indexed by destination alert state
}

// sloTracker is the server's SLO engine: per-class trackers plus the
// alert evaluation the pressure loop drives. now is injectable for tests.
type sloTracker struct {
	cfg     SLOConfig
	classes [numLatencyClasses]classTracker
	now     func() time.Time

	// onAlert, when non-nil, observes each alert transition (class, from, to).
	onAlert func(class LatencyClass, from, to int32)
}

func newSLOTracker(cfg SLOConfig, serverMax time.Duration) *sloTracker {
	cfg = cfg.withDefaults(serverMax)
	t := &sloTracker{cfg: cfg, now: time.Now}
	for i := range t.classes {
		c := &t.classes[i]
		c.cfg = cfg.class(LatencyClass(i))
		c.fast = newBurnRing(cfg.FastWindow)
		c.slow = newBurnRing(cfg.SlowWindow)
	}
	return t
}

// maxBudget returns the class's budget clamp (nil-safe: falls back to 0,
// meaning "server default only").
func (t *sloTracker) maxBudget(lc LatencyClass) time.Duration {
	if t == nil {
		return 0
	}
	return t.classes[lc].cfg.MaxBudget
}

// observe records one SLO-eligible request: a 2xx or a server fault
// (>= 500). Callers must not feed 400s or 429s (see the file comment).
func (t *sloTracker) observe(lc LatencyClass, d time.Duration, status int) {
	if t == nil {
		return
	}
	c := &t.classes[lc]
	bad := status >= 500 || (status < 300 && d > c.cfg.Objective)
	c.latency.Observe(d)
	now := t.now()
	c.mu.Lock()
	c.served++
	if bad {
		c.bad++
	}
	c.fast.add(now, bad)
	c.slow.add(now, bad)
	c.mu.Unlock()
}

// burn converts a window's counts to a burn rate: the bad fraction over
// the class's error budget. Zero without traffic.
func burn(good, bad int64, target float64) float64 {
	total := good + bad
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - target)
}

// evaluate advances every class's alert state one step toward what the
// two windows currently support, firing onAlert per transition, and
// returns the worst fast-window burn as a fraction of PageBurn in [0, 1]
// — the ladder's burn pressure signal. Classes below MinSamples in the
// fast window neither alert nor contribute pressure.
func (t *sloTracker) evaluate() float64 {
	if t == nil {
		return 0
	}
	now := t.now()
	pressure := 0.0
	for i := range t.classes {
		c := &t.classes[i]
		c.mu.Lock()
		fg, fb := c.fast.sums(now)
		sg, sb := c.slow.sums(now)
		fastBurn := burn(fg, fb, c.cfg.Target)
		slowBurn := burn(sg, sb, c.cfg.Target)
		var want int32
		switch {
		case fg+fb < t.cfg.MinSamples:
			want = alertOK
		case fastBurn >= t.cfg.PageBurn && slowBurn >= t.cfg.PageBurn:
			want = alertPage
		case fastBurn >= t.cfg.WarnBurn && slowBurn >= t.cfg.WarnBurn:
			want = alertWarning
		default:
			want = alertOK
		}
		from := c.state
		if want > from {
			c.state = from + 1 // one rung per tick: ok→warning→page stays observable
		} else if want < from {
			c.state = from - 1
		}
		to := c.state
		if to != from {
			c.transitions[to]++
		}
		if fg+fb >= t.cfg.MinSamples {
			if p := fastBurn / t.cfg.PageBurn; p > pressure {
				pressure = p
			}
		}
		c.mu.Unlock()
		if to != from && t.onAlert != nil {
			t.onAlert(LatencyClass(i), from, to)
		}
	}
	if pressure > 1 {
		pressure = 1
	}
	return pressure
}

// snapshot renders the wire form served on /slo and /metrics.
func (t *sloTracker) snapshot() []obs.SLOClass {
	if t == nil {
		return nil
	}
	now := t.now()
	out := make([]obs.SLOClass, 0, numLatencyClasses)
	for i := range t.classes {
		c := &t.classes[i]
		lc := LatencyClass(i)
		c.mu.Lock()
		fg, fb := c.fast.sums(now)
		sg, sb := c.slow.sums(now)
		sc := obs.SLOClass{
			Class:            lc.String(),
			Objective:        c.cfg.Objective.String(),
			ObjectiveSeconds: c.cfg.Objective.Seconds(),
			Target:           c.cfg.Target,
			State:            alertName(c.state),
			Served:           c.served,
			Bad:              c.bad,
			Windows: []obs.SLOWindow{
				{Window: t.cfg.FastWindow.String(), Good: fg, Bad: fb,
					BurnRate: burn(fg, fb, c.cfg.Target)},
				{Window: t.cfg.SlowWindow.String(), Good: sg, Bad: sb,
					BurnRate: burn(sg, sb, c.cfg.Target)},
			},
			Transitions: map[string]int64{
				"ok":      c.transitions[alertOK],
				"warning": c.transitions[alertWarning],
				"page":    c.transitions[alertPage],
			},
		}
		c.mu.Unlock()
		sc.Latency = c.latency.Snapshot(lc.String())
		out = append(out, sc)
	}
	return out
}
