package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"

	"memsched/internal/baseline"
	"memsched/internal/critpath"
	"memsched/internal/expr"
	"memsched/internal/metrics"
	"memsched/internal/serve"
)

// The output checks. Simulated quantities (GFlop/s, bytes moved,
// makespans) are deterministic, so every sweep cell must equal its
// committed BENCH cell exactly and every fleet job must equal an
// in-process run of the same request. What the checks deliberately do
// not read:
//   - BENCH crit_* fields: the committed files predate the critical-path
//     layer, so they hold zeros. Critical paths are checked for internal
//     consistency instead (checkCritPath).
//   - a job status's id, trace and *_unix_ms fields, which differ on
//     every run by design. The fleet check sees only the decoded result.

// critTolerance is the allowed error, per blame category, between the
// category sum and the makespan: each category is truncated to whole
// microseconds on its own.
const critTolerance = 0.001

// checkRows verifies one sweep's rows against the BENCH file: each row
// equals its BENCH cell exactly, no row repeats, and exactly want rows
// are present.
func checkRows(bench *baseline.File, rows []metrics.Row, want int) []string {
	var problems []string
	seen := make(map[string]bool, len(rows))
	for _, row := range rows {
		key := baseline.Cell{Row: row}.Key()
		if seen[key] {
			problems = append(problems, fmt.Sprintf("%s: duplicate cell", key))
			continue
		}
		seen[key] = true
		ref, ok := bench.Cells[key]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: not in BENCH_%s", key, bench.Figure))
			continue
		}
		if row != ref.Row {
			problems = append(problems, fmt.Sprintf("%s: row differs from BENCH:\n  got  %+v\n  want %+v", key, row, ref.Row))
		}
	}
	if len(seen) != want {
		problems = append(problems, fmt.Sprintf("%s: %d cells, want %d", bench.Figure, len(seen), want))
	}
	return problems
}

// checkTelemetryCells verifies the typed cells of a telemetry sweep: the
// rows as checkRows does, the telemetry scalars of baseline.FromRow
// against the BENCH cell, and each critical path for consistency.
func checkTelemetryCells(bench *baseline.File, cells []expr.CellTelemetry, want int) []string {
	rows := make([]metrics.Row, len(cells))
	for i, c := range cells {
		rows[i] = c.Row
	}
	problems := checkRows(bench, rows, want)
	for _, c := range cells {
		got := baseline.FromRow(c.Row, c.Telemetry, nil)
		key := got.Key()
		ref, ok := bench.Cells[key]
		if !ok {
			continue // reported by checkRows
		}
		type scalars struct {
			Bus, Starved, BlockedBus, BlockedPeer, Done float64
			Reloads                                     int
		}
		g := scalars{got.BusUtilization, got.StarvedMS, got.BlockedBusMS, got.BlockedPeerMS, got.DoneMS, got.Reloads}
		w := scalars{ref.BusUtilization, ref.StarvedMS, ref.BlockedBusMS, ref.BlockedPeerMS, ref.DoneMS, ref.Reloads}
		if c.Telemetry == nil {
			problems = append(problems, fmt.Sprintf("%s: no telemetry", key))
		} else if g != w {
			problems = append(problems, fmt.Sprintf("%s: telemetry differs from BENCH: got %+v want %+v", key, g, w))
		}
		if err := checkCritPath(c.Row, c.CritPath); err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", key, err))
		}
	}
	return problems
}

// checkCritPath verifies a cell's makespan attribution against the cell
// itself: the blame categories tile the makespan, and the counterfactual
// bounds do not exceed it.
func checkCritPath(row metrics.Row, cp *critpath.Summary) error {
	if cp == nil {
		return fmt.Errorf("no critical-path summary")
	}
	cats := []float64{cp.ComputeMS, cp.PCIMS, cp.PeerMS, cp.ReloadMS, cp.SchedMS, cp.FaultMS}
	sum := 0.0
	for _, v := range cats {
		sum += v
	}
	if math.Abs(sum-row.MakespanMS) > critTolerance*float64(len(cats))+1e-9 {
		return fmt.Errorf("critpath categories sum to %v ms, makespan is %v ms", sum, row.MakespanMS)
	}
	if cp.TransferFreeMS > row.MakespanMS || cp.EvictionFreeMS > row.MakespanMS {
		return fmt.Errorf("critpath bounds exceed makespan %v ms: transfer-free %v, eviction-free %v",
			row.MakespanMS, cp.TransferFreeMS, cp.EvictionFreeMS)
	}
	return nil
}

// checkJobResult verifies a routed job's result bytes against the
// in-process reference of the same request.
func checkJobResult(raw json.RawMessage, ref serve.JobResult) error {
	if len(raw) == 0 {
		return fmt.Errorf("no result")
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var got serve.JobResult
	if err := dec.Decode(&got); err != nil {
		return fmt.Errorf("decode result: %w", err)
	}
	if !reflect.DeepEqual(got, ref) {
		return fmt.Errorf("result differs from in-process run:\n  got  %+v\n  want %+v", got, ref)
	}
	return nil
}
