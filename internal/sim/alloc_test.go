package sim

import "testing"

// TestScheduleStepAllocFree pins the kernel hot path at zero allocations
// in steady state: once the wheel's arena and the callback slice have grown
// to the working set, Schedule/Step/Cancel cycles must not allocate at all.
func TestScheduleStepAllocFree(t *testing.T) {
	s := New()
	fn := func() {}
	// Warm the arena to the working-set size.
	for i := 0; i < 64; i++ {
		if _, err := s.Schedule(Time(i%7), fn); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()

	allocs := testing.AllocsPerRun(1000, func() {
		var tms [8]Timer
		for i := range tms {
			tm, err := s.Schedule(Time(i%3), fn)
			if err != nil {
				t.Fatal(err)
			}
			tms[i] = tm
		}
		tms[5].Cancel()
		tms[1].Cancel()
		for s.Step() {
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Schedule/Step/Cancel allocates %v per cycle, want 0", allocs)
	}
}

// TestStaleHandleAfterReuse pins the generation guard: once a timer id is
// recycled into a new timer, handles to the old incarnation must stay
// inert — Cancel must not kill the new occupant.
func TestStaleHandleAfterReuse(t *testing.T) {
	s := New()
	old, err := s.Schedule(1, func() {})
	if err != nil {
		t.Fatal(err)
	}
	s.Run() // old fires; its id returns to the free list

	fired := false
	fresh, err := s.Schedule(1, func() { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	if fresh.wt.idx != old.wt.idx {
		t.Fatalf("free list did not recycle the id (old %d, fresh %d)", old.wt.idx, fresh.wt.idx)
	}
	if old.Active() {
		t.Fatal("stale handle reports Active")
	}
	if old.Cancel() {
		t.Fatal("stale handle cancelled the recycled id's event")
	}
	s.Run()
	if !fired {
		t.Fatal("recycled timer did not fire")
	}
}

// TestCancelInsideEvent pins that a cancel counts at once under
// re-entrancy: an event cancelling a later timer must prevent it, and
// Pending must be exact, whenever the tombstone's storage is reclaimed.
func TestCancelInsideEvent(t *testing.T) {
	s := New()
	fired := false
	victim, err := s.Schedule(10, func() { fired = true })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Schedule(5, func() {
		if !victim.Cancel() {
			t.Error("Cancel inside event returned false")
		}
		if s.Pending() != 0 {
			t.Errorf("Pending = %d after eager cancel, want 0", s.Pending())
		}
	}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}
