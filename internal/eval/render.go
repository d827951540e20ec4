package eval

import (
	"fmt"
	"io"
	"strings"

	"jobsched/internal/sched"
)

// Render writes the grid in the layout of the paper's Tables 3–6:
// one row per order policy, three column pairs (sec, pct) for the list
// scheduler, conservative backfilling and EASY backfilling. A cell
// without a result shows its mark and no percent; without a reference
// result every percent is n/a.
func (g *Grid) Render(w io.Writer) error {
	starts := []sched.StartName{sched.StartList, sched.StartConservative, sched.StartEASY}
	if _, err := fmt.Fprintf(w, "%s — %s case (%d jobs, %d nodes)\n",
		g.Title, g.Case, g.Jobs, g.Machine.Nodes); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-14s %-22s %-22s %-22s\n", "",
		"Listscheduler", "Backfilling", "EASY-Backfilling"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-14s %-11s %-10s %-11s %-10s %-11s %-10s\n", "",
		"sec", "pct", "sec", "pct", "sec", "pct"); err != nil {
		return err
	}
	refOK := g.Ref != nil && g.Ref.Err == ""
	for _, o := range sched.GridOrders() {
		row := fmt.Sprintf("%-14s", o)
		for _, s := range starts {
			val, pct := "-", "-"
			switch c := g.Cell(o, s); {
			case c == nil:
			case c.Err != "":
				val, pct = mark(c), ""
			case !refOK:
				val, pct = fmtSci(c.Value), "n/a"
			default:
				val, pct = fmtSci(c.Value), fmtPct(c.Pct, g.Ref == c)
			}
			row += fmt.Sprintf("%-11s %-10s ", val, pct)
		}
		if _, err := fmt.Fprintln(w, strings.TrimRight(row, " ")); err != nil {
			return err
		}
	}
	if g.LowerBound > 0 {
		if _, err := fmt.Fprintf(w, "%-14s%-11s (no schedule can do better; Section 2.3)\n",
			"lower bound", fmtSci(g.LowerBound)); err != nil {
			return err
		}
	}
	return nil
}

// mark is what a cell without a result shows instead of a number: ·
// for another shard's cell, ERR for a failed one.
func mark(c *Cell) string {
	if c.OtherShard {
		return "·"
	}
	return "ERR"
}

// fmtSci renders a value in the paper's scientific notation (4.91E+06).
func fmtSci(v float64) string {
	s := fmt.Sprintf("%.2E", v)
	return s
}

// fmtPct renders a percentage with explicit sign; the reference cell is
// rendered as "0%" as in the paper.
func fmtPct(p float64, isRef bool) string {
	if isRef {
		return "0%"
	}
	return fmt.Sprintf("%+.1f%%", p)
}

// RenderComputeTime writes the grid's scheduler computation times in the
// layout of Tables 7–8: percent deviation from the FCFS/EASY reference,
// list scheduler and EASY columns, with the two SMART variants combined
// into one row as in the paper. Cells without a result follow Render's
// rules.
func (g *Grid) RenderComputeTime(w io.Writer) error {
	ref := g.Cell(sched.OrderFCFS, sched.StartEASY)
	if ref == nil || ref.Err == "" && ref.SchedulerTime == 0 {
		return fmt.Errorf("eval: no FCFS/EASY reference computation time")
	}
	refT := ref.SchedulerTime.Seconds()
	pctOf := func(t float64) string {
		if ref.Err != "" {
			return "n/a"
		}
		return fmt.Sprintf("%+.1f%%", (t-refT)/refT*100)
	}
	pct := func(o sched.OrderName, s sched.StartName) string {
		switch c := g.Cell(o, s); {
		case c == nil:
			return "-"
		case c.Err != "":
			return mark(c)
		case c == ref:
			return "0%"
		default:
			return pctOf(c.SchedulerTime.Seconds())
		}
	}
	smartPct := func(s sched.StartName) string {
		a, b := g.Cell(sched.OrderSMARTFFIA, s), g.Cell(sched.OrderSMARTNFIW, s)
		switch {
		case a == nil || b == nil:
			return "-"
		case a.Err != "":
			return mark(a)
		case b.Err != "":
			return mark(b)
		}
		return pctOf((a.SchedulerTime.Seconds() + b.SchedulerTime.Seconds()) / 2)
	}
	if _, err := fmt.Fprintf(w, "%s — %s case, scheduler computation time (pct vs FCFS/EASY)\n",
		g.Title, g.Case); err != nil {
		return err
	}
	rows := [][]string{
		{"%-14s %-14s %-16s\n", "", "Listscheduler", "EASY-Backfilling"},
		{"%-14s %-14s %-16s\n", "FCFS",
			pct(sched.OrderFCFS, sched.StartList), pct(sched.OrderFCFS, sched.StartEASY)},
		{"%-14s %-14s %-16s\n", "PSRS",
			pct(sched.OrderPSRS, sched.StartList), pct(sched.OrderPSRS, sched.StartEASY)},
		{"%-14s %-14s %-16s\n", "SMART",
			smartPct(sched.StartList), smartPct(sched.StartEASY)},
		{"%-14s %-14s\n", "Garey&Graham",
			pct(sched.OrderGG, sched.StartList)},
	}
	for _, row := range rows {
		args := make([]any, len(row)-1)
		for i, cell := range row[1:] {
			args[i] = cell
		}
		if _, err := fmt.Fprintf(w, row[0], args...); err != nil {
			return err
		}
	}
	return nil
}

// CSV writes the grid as comma-separated series — the data behind the
// paper's bar-chart figures (Figures 3–6 plot exactly the table values).
// A cell without a result has empty numeric fields, and without a
// reference result every pct_vs_ref is empty.
func (g *Grid) CSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "order,start,value_sec,pct_vs_ref,scheduler_seconds,max_queue,makespan,utilization"); err != nil {
		return err
	}
	refOK := g.Ref != nil && g.Ref.Err == ""
	for _, c := range g.Cells {
		var err error
		if c.Err != "" {
			_, err = fmt.Fprintf(w, "%s,%s,,,,,,\n", c.Order, c.Start)
		} else {
			pct := ""
			if refOK {
				pct = fmt.Sprintf("%.2f", c.Pct)
			}
			_, err = fmt.Fprintf(w, "%s,%s,%g,%s,%.6f,%d,%d,%.4f\n",
				c.Order, c.Start, c.Value, pct, c.SchedulerTime.Seconds(),
				c.MaxQueue, c.Makespan, c.Utilization)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
