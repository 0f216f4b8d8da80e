package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/workload"
)

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, with every correctness check on: it keeps the harness compiling
// and its checks honest.
func TestWorkloadsTiny(t *testing.T) {
	for _, wl := range []string{"read_zipf", "query", "durable_write"} {
		for _, trace := range []bool{false, true} {
			wl, trace := wl, trace
			name := wl
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				cfg := config{workload: wl, seed: 7, seconds: 1, trace: trace, dir: dir,
					spans: filepath.Join(dir, "spans.json"), tiny: true}
				var out bytes.Buffer
				res, err := run(context.Background(), cfg, &out)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct %v attempted %d failed %d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := declared(t, trace)
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json declares %d: %v", len(res.Metrics), len(want), sortedKeys(res.Metrics))
				}
				for name, unit := range want {
					if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
						t.Errorf("metric %s: reported %+v (present %v), declared unit %s", name, m, ok, unit)
					}
				}
				if strings.Contains(out.String(), "PROBLEM") {
					t.Errorf("problems reported:\n%s", out.String())
				}
				if trace {
					checkSpans(t, cfg.spans)
				}
			})
		}
	}
}

// TestFailedOperationFailsRun plants a read of a node that does not exist:
// the server answers it with an error, and the run must report it failed
// and incorrect rather than leave it out of the figures.
func TestFailedOperationFailsRun(t *testing.T) {
	dir := t.TempDir()
	cfg := config{workload: "read_zipf", seed: 7, seconds: 1, dir: dir, tiny: true,
		afterGenerate: func(sp spec) { sp.(*readZipf).ids[3] = core.NodeID(1 << 40) }}
	var out bytes.Buffer
	res, err := run(context.Background(), cfg, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("correct %v failed %d, want false and 1\n%s", res.Correct, res.Failed, out.String())
	}
	if !strings.Contains(out.String(), "PROBLEM: 1 of") {
		t.Errorf("no problem line for the failed operation:\n%s", out.String())
	}
}

// TestCheckCatchesWrongAnswer makes sure the content comparison is not
// vacuous: a node read back with one changed character must fail.
func TestCheckCatchesWrongAnswer(t *testing.T) {
	lp, err := planLoad(workload.New(3), 5, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := lp.orders[2]
	good := p.o.xmlText()
	if err := checkNode(lp.orders, p.first, good); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	bad := strings.Replace(good, "<customer>", "<customer>x", 1)
	if err := checkNode(lp.orders, p.first, bad); err == nil {
		t.Fatal("changed answer accepted")
	}
	if err := checkNode(lp.orders, p.first+1, `id="PO-999999"`); err == nil {
		t.Fatal("wrong attribute accepted")
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(v, n=4), the method runs are compared with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5.5, 1.25, 9, 4, 4, 7, 2.5, 8, 1, 6.75, 3}, [3]float64{2.5, 4, 7}},
	} {
		q1, q2, q3 := quartiles(c.v)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.v, q1, q2, q3, c.want)
		}
	}
}

// checkSpans reads a traced run's span file and checks that server sides
// and file calls hang under the operations that caused them.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []struct {
		ID, Parent uint64
		Name       string
		Start      int64 `json:"start_ns"`
	}
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("span file: %v", err)
	}
	names := make(map[uint64]string)
	for _, s := range spans {
		names[s.ID] = s.Name
	}
	under := make(map[string]bool)
	for _, s := range spans {
		if s.Parent != 0 {
			under[s.Name+" < "+names[s.Parent]] = true
		}
	}
	for _, want := range []string{"server.request < ", "wal.log.sync < inproc.flush", "replica.file.sync < inproc.catchup", "server.replica_request < inproc.catchup"} {
		found := false
		for k := range under {
			if strings.HasPrefix(k, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no span %q in %d spans", want, len(spans))
		}
	}
}

// TestCheckAnswerCatchesWrongRows does the same for query answers.
func TestCheckAnswerCatchesWrongRows(t *testing.T) {
	lp, err := planLoad(workload.New(3), 20, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range queryShapes([]string{lp.orders[4].o.id}, []int{2}) {
		if sh.flwor {
			continue
		}
		var a answer
		for _, r := range sh.expect(lp.orders) {
			a.rows = append(a.rows, server.Row{ID: r.id, XML: r.xml})
		}
		if err := checkAnswer(sh, a, lp.orders); err != nil {
			t.Fatalf("%s: correct answer rejected: %v", sh.expr, err)
		}
		if len(a.rows) == 0 {
			continue
		}
		a.rows[0].ID++
		if err := checkAnswer(sh, a, lp.orders); err == nil {
			t.Errorf("%s: wrong row id accepted", sh.expr)
		}
		a.rows[0].ID--
		a.rows = a.rows[1:]
		if err := checkAnswer(sh, a, lp.orders); err == nil {
			t.Errorf("%s: missing row accepted", sh.expr)
		}
	}
}

// declared reads the metric names and units BENCHMARK.json declares for an
// untraced or a traced run.
func declared(t *testing.T, trace bool) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	list := b.EndToEnd
	if trace {
		list = b.PerLayer
	}
	out := make(map[string]string)
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}
