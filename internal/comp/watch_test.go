package comp

import (
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// frozenView freezes an engine over the starts a clean run of p reaches
// and returns a fresh view, as the checkpoint engine's samples run on.
func frozenView(t *testing.T, p *isa.Program) *Engine {
	t.Helper()
	warm := NewEngine(p.Code, nil, 0)
	m := cpu.New()
	m.Reset(p)
	if stop := warm.Run(m, p.Code, testMaxSteps); stop.Reason != cpu.StopHalt {
		t.Fatalf("clean run: %v", stop)
	}
	eng := NewEngine(p.Code, nil, 0)
	eng.Freeze(warm.Reached())
	return eng.Clone()
}

// An armed watch stops the run exactly where the step oracle first enters
// the watched block with the watched registers, with the state flushed;
// disarmed, the run then finishes as if it had never stopped.
func TestWatchStopsAtBlockEntry(t *testing.T) {
	p := engineProgram(t)
	const loop = 4 // the loop head, a block start
	ref := cpu.New()
	ref.Reset(p)
	entries := 0
	for entries < 5 {
		if _, done := ref.Step(p.Code); done {
			t.Fatal("reference halted before the fifth loop entry")
		}
		if ref.IP == loop {
			entries++
		}
	}
	want := capture(ref, cpu.Stop{Reason: cpu.StopWatch, IP: loop})
	want.output = append([]int32(nil), ref.Output...)
	regs := ref.Regs
	final := capture(ref, ref.Run(p.Code, testMaxSteps))

	v := frozenView(t, p)
	if !v.BlockStart(loop) {
		t.Fatal("the loop head is not a compiled block start")
	}
	m := cpu.New()
	m.Reset(p)
	v.Watch(loop, &regs, ^uint64(0))
	if got := capture(m, v.Run(m, p.Code, testMaxSteps)); !reflect.DeepEqual(got, want) {
		t.Fatalf("watch stop differs from the oracle's state\n got: %+v\nwant: %+v", got, want)
	}
	v.Watch(0, nil, 0)
	if got := capture(m, v.Run(m, p.Code, testMaxSteps)); !reflect.DeepEqual(got, final) {
		t.Fatalf("resumed run differs from Run\n got: %+v\nwant: %+v", got, final)
	}
}

// A watch that never matches expires at its soft deadline, always on a
// block entry (never mid-block), and a run re-armed deadline after
// deadline finishes exactly like Machine.Run.
func TestWatchDeadlineExpiresOnBlockEntries(t *testing.T) {
	p := engineProgram(t)
	ref := cpu.New()
	ref.Reset(p)
	want := capture(ref, ref.Run(p.Code, testMaxSteps))

	v := frozenView(t, p)
	m := cpu.New()
	m.Reset(p)
	var never [isa.NumRegs]int32
	never[isa.EAX] = -1
	var stop cpu.Stop
	expiries := 0
	for until := uint64(5); ; until += 7 {
		v.Watch(0, &never, until)
		if stop = v.Run(m, p.Code, testMaxSteps); stop.Reason != cpu.StopWatch {
			break
		}
		expiries++
		if !v.BlockStart(m.IP) && m.Steps < until {
			t.Fatalf("expired at ip %d, step %d, before the deadline %d and off a block entry", m.IP, m.Steps, until)
		}
	}
	if expiries == 0 {
		t.Fatal("the deadline never expired")
	}
	if got := capture(m, stop); !reflect.DeepEqual(got, want) {
		t.Fatalf("re-armed run differs from Run\n got: %+v\nwant: %+v", got, want)
	}
}
