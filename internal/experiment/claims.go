package experiment

import (
	"context"
	"fmt"
	"math"
)

// Claim is one falsifiable statement the paper makes about its figures,
// expressed as a check over the reproduced tables. Claims compare curve
// *shapes* (orderings, trends, crossovers), never absolute values — the
// substrate is a reimplementation, not the authors' testbed.
type Claim struct {
	// ID is a short stable identifier (C1, C2, ...).
	ID string
	// Source cites the paper passage the claim paraphrases.
	Source string
	// Statement is the checked property in plain language.
	Statement string
	// Figures lists the registry keys whose tables the check consumes.
	Figures []string
	// Check evaluates the claim given the tables of every requested
	// figure, keyed by registry key. It returns a human-readable detail
	// line either way.
	Check func(tables map[string][]*Table) (bool, string)
}

// missingCurve is mustMean's panic value. A claim can ask for a point the
// tables lack when the run restricted the size sweep (dlexp -verify
// -sizes 2,4 has no N=3 for a saturation check); evaluate recovers it and
// reports the claim as not evaluable.
type missingCurve struct{ msg string }

// mustMean pulls a curve value, or abandons the claim check with a
// missingCurve naming the absent curve and size.
func mustMean(t *Table, label string, size int) float64 {
	v, ok := t.Mean(label, size)
	if !ok {
		panic(missingCurve{fmt.Sprintf("claim references missing curve %q size %d in %q", label, size, t.Title)})
	}
	return v
}

func minMaxSize(t *Table) (int, int) {
	pts := t.Curves[0].Points
	return pts[0].Size, pts[len(pts)-1].Size
}

// Claims returns the paper's checkable statements in order.
func Claims() []Claim {
	return []Claim{
		{
			ID:        "C1",
			Source:    "§6: lateness decreases almost linearly with system size until it saturates",
			Statement: "PURE/CCNE max lateness improves from the smallest to the largest system and changes little over the last sizes",
			Figures:   []string{"2"},
			Check: func(tables map[string][]*Table) (bool, string) {
				for _, t := range tables["2"] {
					lo, hi := minMaxSize(t)
					small := mustMean(t, "PURE/CCNE", lo)
					large := mustMean(t, "PURE/CCNE", hi)
					if large >= small {
						return false, fmt.Sprintf("%s: %.2f at N=%d vs %.2f at N=%d", t.Scenario, small, lo, large, hi)
					}
					// Saturation: the last step changes by <10% of the
					// total improvement.
					prev := mustMean(t, "PURE/CCNE", hi-1)
					if math.Abs(large-prev) > 0.1*math.Abs(small-large) {
						return false, fmt.Sprintf("%s: no saturation (last step %.2f)", t.Scenario, large-prev)
					}
				}
				return true, "improves with N and saturates in every scenario"
			},
		},
		{
			ID:        "C2",
			Source:    "§6: the overall best performance is attained when the communication cost is never assumed (CCNE)",
			Statement: "PURE/CCNE is at least as good as PURE/CCAA at every size in every scenario",
			Figures:   []string{"2"},
			Check: func(tables map[string][]*Table) (bool, string) {
				for _, t := range tables["2"] {
					for _, p := range t.Curves[0].Points {
						ne := mustMean(t, "PURE/CCNE", p.Size)
						aa := mustMean(t, "PURE/CCAA", p.Size)
						if ne > aa+1e-9 {
							return false, fmt.Sprintf("%s N=%d: CCNE %.2f worse than CCAA %.2f", t.Scenario, p.Size, ne, aa)
						}
					}
				}
				return true, "CCNE dominates CCAA everywhere"
			},
		},
		{
			ID:        "C3",
			Source:    "§6: the overall best metric is PURE; NORM degrades drastically when execution-time variation increases",
			Statement: "at the largest size PURE beats NORM, and NORM's deficit grows from LDET to HDET",
			Figures:   []string{"2"},
			Check: func(tables map[string][]*Table) (bool, string) {
				gaps := make([]float64, 0, 3)
				for _, t := range tables["2"] {
					_, hi := minMaxSize(t)
					pure := mustMean(t, "PURE/CCNE", hi)
					norm := mustMean(t, "NORM/CCNE", hi)
					if pure > norm {
						return false, fmt.Sprintf("%s: PURE %.2f worse than NORM %.2f at N=%d", t.Scenario, pure, norm, hi)
					}
					gaps = append(gaps, norm-pure)
				}
				for i := 1; i < len(gaps); i++ {
					if gaps[i] < gaps[i-1] {
						return false, fmt.Sprintf("NORM deficit not growing with deviation: %v", gaps)
					}
				}
				return true, fmt.Sprintf("NORM deficit grows with deviation: %.1f -> %.1f -> %.1f", gaps[0], gaps[1], gaps[2])
			},
		},
		{
			ID:        "C4",
			Source:    "§7/Figure 3: too large a surplus factor is detrimental (Δ=4), and a universally best Δ is hard to find",
			Statement: "Δ=4 is the worst choice at the largest size, and its penalty relative to Δ=1 shrinks at the smallest size",
			Figures:   []string{"3"},
			Check: func(tables map[string][]*Table) (bool, string) {
				for _, t := range tables["3"] {
					lo, hi := minMaxSize(t)
					d1hi := mustMean(t, "THRES d=1", hi)
					d4hi := mustMean(t, "THRES d=4", hi)
					if d4hi <= d1hi {
						return false, fmt.Sprintf("%s: d=4 (%.2f) not worse than d=1 (%.2f) at N=%d", t.Scenario, d4hi, d1hi, hi)
					}
					d1lo := mustMean(t, "THRES d=1", lo)
					d4lo := mustMean(t, "THRES d=4", lo)
					if (d4lo - d1lo) >= (d4hi - d1hi) {
						return false, fmt.Sprintf("%s: d=4 penalty did not shrink at small N (%.2f vs %.2f)",
							t.Scenario, d4lo-d1lo, d4hi-d1hi)
					}
				}
				return true, "Δ=4 detrimental at large N, less so at small N"
			},
		},
		{
			ID:        "C5",
			Source:    "§7/Figure 4: the choice of execution-time threshold is not as critical as the surplus factor (within a few percent)",
			Statement: "the spread among c_thres ∈ {0.75,1.0,1.25}×MET stays far below the spread among Δ ∈ {1,4}",
			Figures:   []string{"3", "4"},
			Check: func(tables map[string][]*Table) (bool, string) {
				worstThres := 0.0
				for _, t := range tables["4"] {
					_, hi := minMaxSize(t)
					a := mustMean(t, "cthres=0.75 MET", hi)
					b := mustMean(t, "cthres=1.25 MET", hi)
					if d := math.Abs(a - b); d > worstThres {
						worstThres = d
					}
				}
				worstDelta := 0.0
				for _, t := range tables["3"] {
					_, hi := minMaxSize(t)
					a := mustMean(t, "THRES d=1", hi)
					b := mustMean(t, "THRES d=4", hi)
					if d := math.Abs(a - b); d > worstDelta {
						worstDelta = d
					}
				}
				if worstThres >= worstDelta/2 {
					return false, fmt.Sprintf("threshold spread %.2f not clearly below Δ spread %.2f", worstThres, worstDelta)
				}
				return true, fmt.Sprintf("threshold spread %.2f ≪ surplus-factor spread %.2f", worstThres, worstDelta)
			},
		},
		{
			ID:        "C6",
			Source:    "§7/Figure 5: for small systems ADAPT clearly outperforms PURE; as the system grows ADAPT's performance becomes comparable to PURE",
			Statement: "ADAPT beats PURE at the smallest size and lands within 10% of PURE at the largest size, in every scenario",
			Figures:   []string{"5"},
			Check: func(tables map[string][]*Table) (bool, string) {
				// Paired per-graph comparisons (both curves share the same
				// workload batch): at the smallest size ADAPT must never
				// lose significantly to PURE and must win significantly in
				// at least one scenario; at the largest size it must stay
				// within 10% of PURE.
				sigWins := 0
				for _, t := range tables["5"] {
					lo, hi := minMaxSize(t)
					d, ok := t.PairedDiff("ADAPT/CCNE", "PURE/CCNE", lo)
					if !ok {
						return false, "paired observations unavailable"
					}
					if d.Mean() > 0 && d.Mean() > d.CI95() {
						return false, fmt.Sprintf("%s: ADAPT significantly WORSE than PURE at N=%d (%.2f ± %.2f)",
							t.Scenario, lo, d.Mean(), d.CI95())
					}
					if d.Mean() < 0 && -d.Mean() > d.CI95() {
						sigWins++
					}
					a, p := mustMean(t, "ADAPT/CCNE", hi), mustMean(t, "PURE/CCNE", hi)
					if math.Abs(a-p) > 0.1*math.Abs(p) {
						return false, fmt.Sprintf("%s: ADAPT %.2f not comparable to PURE %.2f at N=%d", t.Scenario, a, p, hi)
					}
				}
				if sigWins == 0 {
					return false, "no scenario shows a significant ADAPT win at small N"
				}
				return true, fmt.Sprintf("ADAPT wins significantly at small N in %d scenario(s), never loses, tracks PURE at large N", sigWins)
			},
		},
		{
			ID:        "C7",
			Source:    "§7/Figure 5: THRES performs quite well for small systems but exhibits lower performance than PURE as the system size increases",
			Statement: "THRES beats PURE at the smallest size and loses to PURE at the largest size, in every scenario",
			Figures:   []string{"5"},
			Check: func(tables map[string][]*Table) (bool, string) {
				for _, t := range tables["5"] {
					lo, hi := minMaxSize(t)
					// The small-N win must be a significant paired win.
					d, ok := t.PairedDiff("THRES/CCNE", "PURE/CCNE", lo)
					if !ok {
						return false, "paired observations unavailable"
					}
					if d.Mean() >= 0 || -d.Mean() <= d.CI95() {
						return false, fmt.Sprintf("%s: THRES vs PURE at N=%d: %.2f ± %.2f (not a significant win)",
							t.Scenario, lo, d.Mean(), d.CI95())
					}
					if th, p := mustMean(t, "THRES/CCNE", hi), mustMean(t, "PURE/CCNE", hi); th <= p {
						return false, fmt.Sprintf("%s: THRES %.2f not worse than PURE %.2f at N=%d", t.Scenario, th, p, hi)
					}
				}
				return true, "THRES wins significantly at small N, falls behind at large N"
			},
		},
		{
			ID:        "C8",
			Source:    "§7: for HDET beyond ~10 processors ADAPT saturates and becomes slightly worse than PURE",
			Statement: "under HDET at the largest size ADAPT is (slightly) worse than PURE",
			Figures:   []string{"5"},
			Check: func(tables map[string][]*Table) (bool, string) {
				t := tables["5"][2] // HDET panel
				_, hi := minMaxSize(t)
				a, p := mustMean(t, "ADAPT/CCNE", hi), mustMean(t, "PURE/CCNE", hi)
				if a <= p {
					return false, fmt.Sprintf("ADAPT %.2f not worse than PURE %.2f under HDET at N=%d", a, p, hi)
				}
				return true, fmt.Sprintf("ADAPT %.2f vs PURE %.2f under HDET at N=%d", a, p, hi)
			},
		},
		{
			ID:        "C9",
			Source:    "§8: AST scales well with CCR, MET, graph parallelism and interconnection topologies (ADAPT metric)",
			Statement: "ADAPT is at least as good as PURE at the smallest size in every CCR/MET/parallelism/topology configuration",
			Figures:   []string{"ccr", "met", "par", "topo"},
			Check: func(tables map[string][]*Table) (bool, string) {
				checked := 0
				for _, key := range []string{"ccr", "met", "par", "topo"} {
					for _, t := range tables[key] {
						lo, _ := minMaxSize(t)
						a, p := mustMean(t, "ADAPT/CCNE", lo), mustMean(t, "PURE/CCNE", lo)
						if a > p+1e-9 {
							return false, fmt.Sprintf("%s: ADAPT %.2f worse than PURE %.2f at N=%d", t.Scenario, a, p, lo)
						}
						checked++
					}
				}
				return true, fmt.Sprintf("ADAPT ≥ PURE at small N in all %d configurations", checked)
			},
		},
		{
			ID:        "C10",
			Source:    "§1: deadline distribution prior to task assignment circumvents the circular dependency; a poor assignment yields a poor distribution",
			Statement: "the distribution-first flow beats the conventional assignment-first flow at every size",
			Figures:   []string{"order"},
			Check: func(tables map[string][]*Table) (bool, string) {
				t := tables["order"][0]
				for _, p := range t.Curves[0].Points {
					df := mustMean(t, "ADAPT/CCNE", p.Size)
					af := mustMean(t, "PURE/assign-first", p.Size)
					if df >= af {
						return false, fmt.Sprintf("N=%d: distribution-first %.2f not better than assignment-first %.2f", p.Size, df, af)
					}
				}
				return true, "distribution-first dominates at every size"
			},
		},
	}
}

// ClaimResult is one evaluated claim.
type ClaimResult struct {
	Claim  Claim
	Passed bool
	// NotEvaluable marks a claim whose check needs a curve point the
	// tables do not have; Detail names it. Such a claim is not passed.
	NotEvaluable bool
	Detail       string
}

// VerifyClaims runs every figure a claim needs (sharing runs between
// claims) and evaluates all claims. It returns one result per claim.
func VerifyClaims(ctx context.Context, base Config) ([]ClaimResult, error) {
	claims := Claims()
	needed := map[string]bool{}
	for _, c := range claims {
		for _, f := range c.Figures {
			needed[f] = true
		}
	}
	registry := Figures()
	tables := make(map[string][]*Table, len(needed))
	for key := range needed {
		ts, err := registry[key](ctx, base)
		if err != nil {
			return nil, fmt.Errorf("figure %s: %w", key, err)
		}
		tables[key] = ts
	}
	out := make([]ClaimResult, 0, len(claims))
	for _, c := range claims {
		out = append(out, evaluate(c, tables))
	}
	return out, nil
}

// evaluate runs one claim's check, turning a missing curve into a
// not-evaluable result; any other panic is a bug and propagates.
func evaluate(c Claim, tables map[string][]*Table) (r ClaimResult) {
	r.Claim = c
	defer func() {
		if v := recover(); v != nil {
			mc, ok := v.(missingCurve)
			if !ok {
				panic(v)
			}
			r.Passed, r.NotEvaluable, r.Detail = false, true, "not evaluable: "+mc.msg
		}
	}()
	r.Passed, r.Detail = c.Check(tables)
	return r
}
