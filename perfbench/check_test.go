package main

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"memsched/internal/baseline"
	"memsched/internal/expr"
	"memsched/internal/metrics"
	"memsched/internal/serve"
)

// smallSweep runs the first points of a figure (n <= maxN), as the
// benchmark runs it, and returns its rows and typed cells.
func smallSweep(t *testing.T, w sweepWorkload, maxN int) (sweepOutput, int) {
	t.Helper()
	w.maxN = maxN
	out := w.runOnce(w.figure(), 2, nil, nil)
	if out.err != nil {
		t.Fatal(out.err)
	}
	return out, w.cellCount()
}

func loadBench(t *testing.T, w sweepWorkload) *baseline.File {
	t.Helper()
	b, err := baseline.Load("../" + w.bench)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func wantProblem(t *testing.T, problems []string, substr string) {
	t.Helper()
	for _, p := range problems {
		if strings.Contains(p, substr) {
			return
		}
	}
	t.Errorf("no problem mentions %q; got %q", substr, problems)
}

func TestCheckRows(t *testing.T) {
	bench := loadBench(t, sweepHMETIS)
	out, want := smallSweep(t, sweepHMETIS, 10)
	if want != 12 || len(out.rows) != want {
		t.Fatalf("got %d rows, want 12", len(out.rows))
	}
	if p := checkRows(bench, out.rows, want); len(p) != 0 {
		t.Fatalf("today's rows rejected: %q", p)
	}

	perturbed := append([]metrics.Row(nil), out.rows...)
	perturbed[3].GFlops += 1e-9
	wantProblem(t, checkRows(bench, perturbed, want), "row differs")

	wantProblem(t, checkRows(bench, out.rows[1:], want), "11 cells, want 12")

	dup := append(append([]metrics.Row(nil), out.rows...), out.rows[0])
	wantProblem(t, checkRows(bench, dup, want), "duplicate cell")

	extra := append([]metrics.Row(nil), out.rows...)
	extra[0].Workload = "matmul2d(n=11)"
	wantProblem(t, checkRows(bench, extra, want), "not in BENCH")
}

func TestCheckTelemetryCells(t *testing.T) {
	bench := loadBench(t, sweepTelemetry)
	out, want := smallSweep(t, sweepTelemetry, 10)
	if p := checkTelemetryCells(bench, out.cells, want); len(p) != 0 {
		t.Fatalf("today's cells rejected: %q", p)
	}

	perturb := func(edit func(c *expr.CellTelemetry)) []string {
		cells := append([]expr.CellTelemetry(nil), out.cells...)
		edit(&cells[2])
		return checkTelemetryCells(bench, cells, want)
	}
	wantProblem(t, perturb(func(c *expr.CellTelemetry) { c.GFlops *= 1.001 }), "row differs")
	wantProblem(t, perturb(func(c *expr.CellTelemetry) {
		tel := *c.Telemetry
		tel.BusUtilization += 0.01
		c.Telemetry = &tel
	}), "telemetry differs")
	wantProblem(t, perturb(func(c *expr.CellTelemetry) {
		cp := *c.CritPath
		cp.PCIMS += 1
		c.CritPath = &cp
	}), "categories sum")
	wantProblem(t, perturb(func(c *expr.CellTelemetry) {
		cp := *c.CritPath
		cp.TransferFreeMS = c.MakespanMS + 1
		c.CritPath = &cp
	}), "bounds exceed makespan")
	wantProblem(t, perturb(func(c *expr.CellTelemetry) { c.CritPath = nil }), "no critical-path summary")
}

// TestCheckIgnoresBenchCritFields pins that the committed crit_* fields,
// written before the critical-path layer existed, are never compared.
func TestCheckIgnoresBenchCritFields(t *testing.T) {
	bench := loadBench(t, sweepTelemetry)
	for k, c := range bench.Cells {
		c.CritComputeMS, c.CritPCIMS, c.CritReloadMS = 1e6, -3, 42
		c.TransferFreeMS, c.EvictionFreeMS = -1, 1e9
		bench.Cells[k] = c
	}
	out, want := smallSweep(t, sweepTelemetry, 10)
	if p := checkTelemetryCells(bench, out.cells, want); len(p) != 0 {
		t.Fatalf("check read BENCH crit_* fields: %q", p)
	}
}

// replicaStatusBytes runs spec on a real replica and returns the JSON of
// its final status, as the daemon would serve it.
func replicaStatusBytes(t *testing.T, spec serve.JobRequest) []byte {
	t.Helper()
	s := serve.New(serve.Config{Workers: 1})
	defer s.Drain(5 * time.Second)
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err = s.Wait(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestCheckJobResult(t *testing.T) {
	spec := newFleetMix(5, 1).Pool()[0]
	ref, err := referenceResult(spec)
	if err != nil {
		t.Fatal(err)
	}
	var st statusBody
	if err := json.Unmarshal(replicaStatusBytes(t, spec), &st); err != nil {
		t.Fatal(err)
	}
	if err := checkJobResult(st.Result, ref); err != nil {
		t.Fatalf("today's result rejected: %v", err)
	}

	for name, edit := range map[string]func(m map[string]any){
		"gflops":  func(m map[string]any) { m["gflops"] = m["gflops"].(float64) * 1.0001 },
		"loads":   func(m map[string]any) { m["loads"] = m["loads"].(float64) + 1 },
		"unknown": func(m map[string]any) { m["bogus"] = 1 },
	} {
		var m map[string]any
		if err := json.Unmarshal(st.Result, &m); err != nil {
			t.Fatal(err)
		}
		edit(m)
		raw, _ := json.Marshal(m)
		if err := checkJobResult(raw, ref); err == nil {
			t.Errorf("result with a changed %s accepted", name)
		}
	}
	if err := checkJobResult(nil, ref); err == nil {
		t.Error("missing result accepted")
	}
}

// TestCheckIgnoresPerRunStatusFields pins that two runs of one job,
// whose statuses differ in id, trace and timestamps, check the same.
func TestCheckIgnoresPerRunStatusFields(t *testing.T) {
	spec := newFleetMix(9, 1).Pool()[0]
	ref, err := referenceResult(spec)
	if err != nil {
		t.Fatal(err)
	}
	a, b := replicaStatusBytes(t, spec), replicaStatusBytes(t, spec)
	var ma, mb map[string]any
	json.Unmarshal(a, &ma)
	json.Unmarshal(b, &mb)
	ma["id"], ma["trace"], ma["submitted_unix_ms"] = "job-a", 1, 1
	mb["id"], mb["trace"], mb["submitted_unix_ms"] = "job-b", 2, 2
	for _, m := range []map[string]any{ma, mb} {
		raw, _ := json.Marshal(m)
		var st statusBody
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		if err := checkJobResult(st.Result, ref); err != nil {
			t.Fatalf("status %v rejected: %v", m["id"], err)
		}
	}
}
