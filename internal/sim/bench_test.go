package sim

import "testing"

// BenchmarkEngineScheduleRun measures raw event throughput: schedule a
// batch of plain callbacks at mixed offsets and drain it. Per-op cost is
// one heap push + one pop + dispatch.
func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	const batch = 512
	b.ReportAllocs()
	for n := 0; n < b.N; n += batch {
		base := e.Now()
		for i := 0; i < batch; i++ {
			e.Schedule(base+Cycles(i%7), fn)
		}
		if err := e.Run(); err != nil {
			b.Fatalf("Run: %v", err)
		}
	}
}

// BenchmarkProcSwitch measures one full coroutine round trip: Delay
// parks the process (timer event into the heap) and the scheduler
// resumes it next cycle.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	e.Go("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Delay(1)
		}
	})
	if err := e.Run(); err != nil {
		b.Fatalf("Run: %v", err)
	}
}

// BenchmarkSemaphorePingPong measures the blocking handoff between two
// processes: each op is two releases, two wakeups through the ready
// ring, and two coroutine switches.
func BenchmarkSemaphorePingPong(b *testing.B) {
	e := NewEngine()
	ping := NewSemaphore(e, "ping", 0)
	pong := NewSemaphore(e, "pong", 0)
	b.ReportAllocs()
	e.Go("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Acquire(p)
			pong.Release()
		}
	})
	e.Go("b", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Release()
			pong.Acquire(p)
		}
	})
	if err := e.Run(); err != nil {
		b.Fatalf("Run: %v", err)
	}
}

// BenchmarkProcSpawn measures a process's whole life: Go spawns it, its
// first resume creates its coroutine, one Delay parks it, and the body
// returns and ends the coroutine.
func BenchmarkProcSpawn(b *testing.B) {
	e := NewEngine()
	body := func(p *Proc) { p.Delay(1) }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Go("p", body)
		if err := e.Run(); err != nil {
			b.Fatalf("Run: %v", err)
		}
	}
}
