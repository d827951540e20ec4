package eval

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"jobsched/internal/sched"
	"jobsched/internal/sim"
)

// goldenGrid builds a grid with hand-set values so the exact rendered
// layout (the paper's table format) can be pinned.
func goldenGrid() *Grid {
	g := &Grid{
		Title:      "golden",
		Case:       Unweighted,
		Machine:    sim.Machine{Nodes: 256},
		Jobs:       1000,
		LowerBound: 1234,
	}
	add := func(o sched.OrderName, s sched.StartName, v float64, d time.Duration) {
		g.Cells = append(g.Cells, Cell{Order: o, Start: s, Value: v, SchedulerTime: d})
	}
	add(sched.OrderFCFS, sched.StartList, 4910000, 100*time.Millisecond)
	add(sched.OrderFCFS, sched.StartConservative, 670000, 150*time.Millisecond)
	add(sched.OrderFCFS, sched.StartEASY, 395000, 200*time.Millisecond)
	add(sched.OrderPSRS, sched.StartList, 159000, 300*time.Millisecond)
	add(sched.OrderPSRS, sched.StartEASY, 106000, 250*time.Millisecond)
	add(sched.OrderSMARTFFIA, sched.StartList, 157000, 120*time.Millisecond)
	add(sched.OrderSMARTFFIA, sched.StartEASY, 117000, 130*time.Millisecond)
	add(sched.OrderSMARTNFIW, sched.StartList, 182000, 110*time.Millisecond)
	add(sched.OrderSMARTNFIW, sched.StartEASY, 111000, 140*time.Millisecond)
	add(sched.OrderGG, sched.StartList, 146000, 90*time.Millisecond)
	g.Ref = &g.Cells[2]
	for i := range g.Cells {
		g.Cells[i].Pct = (g.Cells[i].Value - g.Ref.Value) / g.Ref.Value * 100
	}
	return g
}

func TestRenderGoldenLayout(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenGrid().Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Paper-style cells: scientific notation and signed percentages.
	for _, want := range []string{
		"4.91E+06", "+1143.0%", // FCFS list, the paper's exact headline pct
		"3.95E+05", "0%", // the reference cell
		"1.46E+05", "-63.0%", // Garey&Graham
		"lower bound", "1.23E+03",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	// The G&G row must show dashes in the backfilling columns.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "Garey&Graham") && !strings.Contains(line, "-    ") {
			t.Errorf("G&G row lacks placeholder dashes: %q", line)
		}
	}
}

func TestRenderComputeTimeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenGrid().RenderComputeTime(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// FCFS list = 100ms vs ref 200ms → -50.0%.
	if !strings.Contains(out, "-50.0%") {
		t.Errorf("compute table missing FCFS list pct:\n%s", out)
	}
	// SMART row merges FFIA and NFIW: list mean (120+110)/2 = 115ms →
	// -42.5%.
	if !strings.Contains(out, "-42.5%") {
		t.Errorf("compute table missing merged SMART pct:\n%s", out)
	}
	// G&G 90ms → -55.0%.
	if !strings.Contains(out, "-55.0%") {
		t.Errorf("compute table missing G&G pct:\n%s", out)
	}
}

// markedGrid is goldenGrid with PSRS/List failed and SMART-NFIW/EASY
// left to another shard: two cells without a result.
func markedGrid() *Grid {
	g := goldenGrid()
	failed := g.Cell(sched.OrderPSRS, sched.StartList)
	*failed = Cell{Order: failed.Order, Start: failed.Start, Err: "simulate: boom"}
	foreign := g.Cell(sched.OrderSMARTNFIW, sched.StartEASY)
	*foreign = Cell{Order: foreign.Order, Start: foreign.Start, OtherShard: true,
		Err: "eval: cell owned by shard 1 of 2 (merge the shard journals to render)"}
	return g
}

// goldenOutputs renders g through Render, RenderComputeTime and CSV.
func goldenOutputs(t *testing.T, g *Grid) (table, compute, csv string) {
	t.Helper()
	var a, b, c bytes.Buffer
	if err := g.Render(&a); err != nil {
		t.Fatal(err)
	}
	if err := g.RenderComputeTime(&b); err != nil {
		t.Fatal(err)
	}
	if err := g.CSV(&c); err != nil {
		t.Fatal(err)
	}
	return a.String(), b.String(), c.String()
}

func checkGolden(t *testing.T, name, got string, want []string) {
	t.Helper()
	if w := strings.Join(want, "\n") + "\n"; got != w {
		t.Errorf("%s:\n--- got\n%s--- want\n%s", name, got, w)
	}
}

const (
	goldenTitle   = "golden — Unweighted case (1000 jobs, 256 nodes)"
	goldenHead1   = "               Listscheduler          Backfilling            EASY-Backfilling      "
	goldenHead2   = "               sec         pct        sec         pct        sec         pct       "
	goldenBound   = "lower bound   1.23E+03    (no schedule can do better; Section 2.3)"
	goldenCTitle  = "golden — Unweighted case, scheduler computation time (pct vs FCFS/EASY)"
	goldenCHead   = "               Listscheduler  EASY-Backfilling"
	goldenCSVHead = "order,start,value_sec,pct_vs_ref,scheduler_seconds,max_queue,makespan,utilization"
)

// A failed cell renders as ERR and another shard's cell as ·, each with
// no percent, in both tables; CSV leaves their numeric fields empty and
// keeps its header.
func TestRenderGoldenCellsWithoutResult(t *testing.T) {
	table, compute, csv := goldenOutputs(t, markedGrid())
	checkGolden(t, "Render", table, []string{
		goldenTitle, goldenHead1, goldenHead2,
		"FCFS          4.91E+06    +1143.0%   6.70E+05    +69.6%     3.95E+05    0%",
		"PSRS          ERR                    -           -          1.06E+05    -73.2%",
		"SMART-FFIA    1.57E+05    -60.3%     -           -          1.17E+05    -70.4%",
		"SMART-NFIW    1.82E+05    -53.9%     -           -          ·",
		"Garey&Graham  1.46E+05    -63.0%     -           -          -           -",
		goldenBound,
	})
	checkGolden(t, "RenderComputeTime", compute, []string{
		goldenCTitle, goldenCHead,
		"FCFS           -50.0%         0%              ",
		"PSRS           ERR            +25.0%          ",
		"SMART          -42.5%         ·               ",
		"Garey&Graham   -55.0%        ",
	})
	checkGolden(t, "CSV", csv, []string{
		goldenCSVHead,
		"FCFS,List,4.91e+06,1143.04,0.100000,0,0,0.0000",
		"FCFS,Backfilling,670000,69.62,0.150000,0,0,0.0000",
		"FCFS,EASY-Backfilling,395000,0.00,0.200000,0,0,0.0000",
		"PSRS,List,,,,,,",
		"PSRS,EASY-Backfilling,106000,-73.16,0.250000,0,0,0.0000",
		"SMART-FFIA,List,157000,-60.25,0.120000,0,0,0.0000",
		"SMART-FFIA,EASY-Backfilling,117000,-70.38,0.130000,0,0,0.0000",
		"SMART-NFIW,List,182000,-53.92,0.110000,0,0,0.0000",
		"SMART-NFIW,EASY-Backfilling,,,,,,",
		"Garey&Graham,List,146000,-63.04,0.090000,0,0,0.0000",
	})
}

// Without a reference result every percent is n/a (and empty in CSV):
// before, a failed FCFS/EASY cell left every Pct at 0 and rendered +0.0%.
func TestRenderGoldenWithoutReference(t *testing.T) {
	g := markedGrid()
	*g.Ref = Cell{Order: g.Ref.Order, Start: g.Ref.Start, Err: "eval: cell exceeded its wall-clock budget"}
	for i := range g.Cells {
		g.Cells[i].Pct = 0 // Run computes no percent without a reference value
	}
	table, compute, csv := goldenOutputs(t, g)
	checkGolden(t, "Render", table, []string{
		goldenTitle, goldenHead1, goldenHead2,
		"FCFS          4.91E+06    n/a        6.70E+05    n/a        ERR",
		"PSRS          ERR                    -           -          1.06E+05    n/a",
		"SMART-FFIA    1.57E+05    n/a        -           -          1.17E+05    n/a",
		"SMART-NFIW    1.82E+05    n/a        -           -          ·",
		"Garey&Graham  1.46E+05    n/a        -           -          -           -",
		goldenBound,
	})
	checkGolden(t, "RenderComputeTime", compute, []string{
		goldenCTitle, goldenCHead,
		"FCFS           n/a            ERR             ",
		"PSRS           ERR            n/a             ",
		"SMART          n/a            ·               ",
		"Garey&Graham   n/a           ",
	})
	checkGolden(t, "CSV", csv, []string{
		goldenCSVHead,
		"FCFS,List,4.91e+06,,0.100000,0,0,0.0000",
		"FCFS,Backfilling,670000,,0.150000,0,0,0.0000",
		"FCFS,EASY-Backfilling,,,,,,",
		"PSRS,List,,,,,,",
		"PSRS,EASY-Backfilling,106000,,0.250000,0,0,0.0000",
		"SMART-FFIA,List,157000,,0.120000,0,0,0.0000",
		"SMART-FFIA,EASY-Backfilling,117000,,0.130000,0,0,0.0000",
		"SMART-NFIW,List,182000,,0.110000,0,0,0.0000",
		"SMART-NFIW,EASY-Backfilling,,,,,,",
		"Garey&Graham,List,146000,,0.090000,0,0,0.0000",
	})
}
