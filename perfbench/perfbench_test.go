package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"deadlinedist/internal/experiment"
	"deadlinedist/internal/generator"
	"deadlinedist/internal/serve"
)

type resultLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return r
}

// TestWorkloadsShort runs every workload briefly, untraced and traced: each
// passes its output check and prints every metric it owes with its unit.
func TestWorkloadsShort(t *testing.T) {
	for _, w := range []string{"sweep", "serve-miss", "serve-hit"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				args := []string{"--workload", w, "--seed", "1997", "--seconds", "0.6", "--trace", trace, "--out", t.TempDir()}
				if code := run(args, &out, &errb); code != 0 {
					t.Fatalf("exit %d: %s\n%s", code, errb.String(), out.String())
				}
				r := lastLine(t, out.String())
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d", r.Correct, r.Failed, r.Attempted)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := r.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.name)
					case m.Unit != d.unit:
						t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
					case trace == "0" && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				if trace != "1" {
					return
				}
				hit := r.Metrics["serve.cache_hit_ratio"].Value
				switch {
				case w == "serve-hit" && hit < 0.99:
					t.Errorf("serve-hit cache hit ratio %v, want >= 0.99", hit)
				case w != "serve-hit" && hit != 0:
					t.Errorf("%s cache hit ratio %v, want 0", w, hit)
				}
				for _, name := range []string{"serve.tier_changes", "serve.shed", "serve.retries"} {
					if v := r.Metrics[name].Value; v != 0 {
						t.Errorf("%s = %v, want 0", name, v)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables the
// command prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestServeChecksCatchCorruption proves the serve output checks can fail:
// a body with one altered digit fails the recomputation check, a
// serve-hit phase whose reference body is corrupted counts the requests
// for that key as failed, and a moved degrade ladder breaks a guard.
func TestServeChecksCatchCorruption(t *testing.T) {
	rig, err := setupServe(7, true, false)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.close()
	s := rig.shapes[3]
	body := append([]byte(nil), rig.hot[3]...)
	tok := token('h', 0, 3)
	if err := s.check(body, tok); err != nil {
		t.Fatalf("genuine body fails its check: %v", err)
	}
	i := bytes.Index(body, []byte(`"deadline":`)) + len(`"deadline":`)
	bad := append([]byte(nil), body...)
	bad[i] = '0' + (bad[i]-'0'+1)%10
	if err := s.check(bad, tok); err == nil {
		t.Fatalf("corrupted deadline passed the check: %s", bad[:i+8])
	}

	rig.hot[3] = bad
	p, _, err := rig.phase(300*time.Millisecond, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.failed == 0 {
		t.Fatalf("corrupted reference body: none of %d requests failed", p.attempted)
	}

	res := newResult()
	rig.srv.Ladder().SetTier(serve.TierCheap)
	rig.srv.Ladder().SetTier(serve.TierFull)
	if _, _, _, err := rig.guards(res); err != nil {
		t.Fatal(err)
	}
	if res.failed != 1 {
		t.Fatalf("ladder moved twice: %d guard failures, want 1", res.failed)
	}
}

// TestSweepCheckCatchesCorruption pins the default seed's table digest and
// proves a corrupted table fails the sweep's output check.
func TestSweepCheckCatchesCorruption(t *testing.T) {
	base := experiment.Default(generator.MDET)
	base.Graphs = sweepGraphs
	base.Seed = defaultSeed
	tables, err := runFigures(context.Background(), base, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	good := summarize(tables)
	if good.digest != sweepDigest {
		t.Fatalf("default-seed digest %s, recorded %s", good.digest, sweepDigest)
	}
	tables[0][0].Curves[0].Points[0].Raw[0] += 1
	bad := summarize(tables)
	res := newResult()
	checkPass(res, 0, bad, good.digest)
	if res.failed != 1 {
		t.Fatalf("corrupted table: %d failures, want 1", res.failed)
	}

	var out bytes.Buffer
	if err := report(&out, options{workload: "sweep"}, res); err != nil {
		t.Fatal(err)
	}
	if r := lastLine(t, out.String()); r.Correct || len(r.Metrics) != 0 {
		t.Fatalf("failed run reported correct=%v with %d metrics", r.Correct, len(r.Metrics))
	}
}

func TestCovered(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 20, End: 50}, {Start: 10, End: 30}, {Start: 60, End: 70}, {Start: 90, End: 130}}
	if got := covered(parent, kids); got != 60 {
		t.Fatalf("covered = %d, want 60", got)
	}
}
