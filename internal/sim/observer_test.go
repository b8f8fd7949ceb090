package sim

import (
	"reflect"
	"testing"

	"rme/internal/memory"
	"rme/internal/word"
)

// sliceObserver records every observed event.
type sliceObserver struct {
	events []Event
}

func (o *sliceObserver) ObserveEvent(ev Event) { o.events = append(o.events, ev) }

// observe attaches a fresh sliceObserver to m and returns it.
func observe(m *Machine) *sliceObserver {
	o := &sliceObserver{}
	m.SetObserver(o)
	return o
}

// contendProg makes procs fight over a shared cell and then spin until a
// release flag flips, exercising RMR charges, parking, and wakes.
func contendProg(c, flag memory.Cell, id int) Program {
	return ProgramFuncs{RunFunc: func(p *Proc) {
		p.Add(c, 1)
		if id == 0 {
			p.Write(flag, 1)
			return
		}
		p.SpinUntil(flag, func(v word.Word) bool { return v != 0 })
		p.Read(c)
	}}
}

// buildContention allocates the shared cells and returns one program per
// process; the caller Starts (and may Reset and re-Start) the machine.
func buildContention(m *Machine) []Program {
	c := m.NewCell("counter", memory.Shared, 0)
	flag := m.NewCell("flag", memory.Shared, 0)
	progs := make([]Program, m.Procs())
	for i := range progs {
		progs[i] = contendProg(c, flag, i)
	}
	return progs
}

func startContention(t *testing.T, m *Machine) []Program {
	t.Helper()
	progs := buildContention(m)
	if err := m.Start(progs); err != nil {
		t.Fatal(err)
	}
	return progs
}

// TestEventFlagsMatchRMRCounters asserts the per-event RMRCC/RMRDSM flags
// sum to exactly the machine's per-process RMR counters — the trace is the
// counters, itemized.
func TestEventFlagsMatchRMRCounters(t *testing.T) {
	for _, model := range []Model{CC, DSM} {
		m := newTestMachine(t, 4, model)
		obs := observe(m)
		startContention(t, m)
		runToCompletion(t, m)
		ccByProc := make([]int, m.Procs())
		dsmByProc := make([]int, m.Procs())
		for _, ev := range obs.events {
			if ev.RMRCC {
				ccByProc[ev.Proc]++
			}
			if ev.RMRDSM {
				dsmByProc[ev.Proc]++
			}
		}
		for p := 0; p < m.Procs(); p++ {
			if got, want := ccByProc[p], m.RMRsIn(CC, p); got != want {
				t.Errorf("%v: p%d trace CC flags = %d, counter = %d", model, p, got, want)
			}
			if got, want := dsmByProc[p], m.RMRsIn(DSM, p); got != want {
				t.Errorf("%v: p%d trace DSM flags = %d, counter = %d", model, p, got, want)
			}
		}
	}
}

// TestCellRMRStatsMatchProcCounters asserts the per-cell attribution table
// is a repartition of the same charges: summed over cells it equals the sum
// of the per-process counters, and every row matches the trace's per-cell
// flag counts.
func TestCellRMRStatsMatchProcCounters(t *testing.T) {
	m := newTestMachine(t, 4, CC)
	obs := observe(m)
	startContention(t, m)
	runToCompletion(t, m)

	var cellCC, cellDSM, procCC, procDSM int
	for _, row := range m.CellRMRStats() {
		cellCC += row.RMRCC
		cellDSM += row.RMRDSM
	}
	for p := 0; p < m.Procs(); p++ {
		procCC += m.RMRsIn(CC, p)
		procDSM += m.RMRsIn(DSM, p)
	}
	if cellCC != procCC || cellDSM != procDSM {
		t.Errorf("cell totals (CC=%d DSM=%d) != proc totals (CC=%d DSM=%d)",
			cellCC, cellDSM, procCC, procDSM)
	}

	byCellCC := map[int]int{}
	byCellDSM := map[int]int{}
	for _, ev := range obs.events {
		if ev.RMRCC {
			byCellCC[ev.Cell]++
		}
		if ev.RMRDSM {
			byCellDSM[ev.Cell]++
		}
	}
	for _, row := range m.CellRMRStats() {
		if row.RMRCC != byCellCC[row.Cell] || row.RMRDSM != byCellDSM[row.Cell] {
			t.Errorf("cell %d (%s): counters CC=%d DSM=%d, trace flags CC=%d DSM=%d",
				row.Cell, row.Label, row.RMRCC, row.RMRDSM, byCellCC[row.Cell], byCellDSM[row.Cell])
		}
	}
}

// TestCellRMRStatsResetAndReplay asserts Reset clears the per-cell counters
// and a replay reproduces them exactly.
func TestCellRMRStatsResetAndReplay(t *testing.T) {
	m := newTestMachine(t, 3, DSM)
	progs := startContention(t, m)
	runToCompletion(t, m)
	first := m.CellRMRStats()
	sched := m.Schedule()

	m.Reset()
	for _, row := range m.CellRMRStats() {
		if row.RMRCC != 0 || row.RMRDSM != 0 {
			t.Fatalf("after Reset, cell %d (%s) has CC=%d DSM=%d", row.Cell, row.Label, row.RMRCC, row.RMRDSM)
		}
	}

	if err := m.Start(progs); err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(sched); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.CellRMRStats(), first) {
		t.Errorf("replayed cell stats differ:\n first: %+v\nreplay: %+v", first, m.CellRMRStats())
	}
}
