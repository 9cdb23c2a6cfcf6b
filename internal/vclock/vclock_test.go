package vclock

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtEpoch(t *testing.T) {
	c := New()
	if !c.Now().Equal(Epoch) {
		t.Fatalf("New clock at %v, want %v", c.Now(), Epoch)
	}
}

func TestClockAdvance(t *testing.T) {
	c := New()
	got := c.Advance(90 * time.Minute)
	want := Epoch.Add(90 * time.Minute)
	if !got.Equal(want) {
		t.Fatalf("Advance = %v, want %v", got, want)
	}
	if !c.Now().Equal(want) {
		t.Fatalf("Now = %v, want %v", c.Now(), want)
	}
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	New().Advance(-time.Second)
}

func TestClockAdvanceTo(t *testing.T) {
	c := New()
	future := Epoch.Add(3 * time.Hour)
	if got := c.AdvanceTo(future); !got.Equal(future) {
		t.Fatalf("AdvanceTo future = %v, want %v", got, future)
	}
	// Moving backwards is a no-op.
	if got := c.AdvanceTo(Epoch); !got.Equal(future) {
		t.Fatalf("AdvanceTo past moved clock to %v, want %v", got, future)
	}
}

func TestClockSet(t *testing.T) {
	c := New()
	past := Epoch.Add(-24 * time.Hour)
	c.Set(past)
	if !c.Now().Equal(past) {
		t.Fatalf("Set did not rewind: %v", c.Now())
	}
}

func TestClockConcurrentAdvance(t *testing.T) {
	c := New()
	const workers, steps = 8, 250
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < steps; j++ {
				c.Advance(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	want := Epoch.Add(workers * steps * time.Millisecond)
	if !c.Now().Equal(want) {
		t.Fatalf("concurrent Advance lost updates: %v, want %v", c.Now(), want)
	}
}

func TestStandardCalendarBasics(t *testing.T) {
	cal := Standard()
	if got := cal.DailyHours(); got != 8*time.Hour {
		t.Fatalf("DailyHours = %v, want 8h", got)
	}
	// Epoch is a Monday 09:00.
	if !cal.IsWorkday(Epoch) {
		t.Fatal("Epoch (Monday) should be a workday")
	}
	sat := time.Date(1995, time.June, 10, 12, 0, 0, 0, time.UTC)
	if cal.IsWorkday(sat) {
		t.Fatal("Saturday should not be a workday")
	}
}

func TestNewCalendarValidation(t *testing.T) {
	if _, err := NewCalendar(nil, 9*time.Hour, 17*time.Hour); err == nil {
		t.Fatal("empty weekday set accepted")
	}
	if _, err := NewCalendar([]time.Weekday{time.Monday}, 17*time.Hour, 9*time.Hour); err == nil {
		t.Fatal("inverted daily window accepted")
	}
	if _, err := NewCalendar([]time.Weekday{time.Monday}, -time.Hour, 9*time.Hour); err == nil {
		t.Fatal("negative dayStart accepted")
	}
	if _, err := NewCalendar([]time.Weekday{time.Weekday(9)}, 9*time.Hour, 17*time.Hour); err == nil {
		t.Fatal("invalid weekday accepted")
	}
}

func TestNextWorkInstant(t *testing.T) {
	cal := Standard()
	cases := []struct {
		name string
		in   time.Time
		want time.Time
	}{
		{"inside window unchanged",
			time.Date(1995, time.June, 5, 10, 30, 0, 0, time.UTC),
			time.Date(1995, time.June, 5, 10, 30, 0, 0, time.UTC)},
		{"before window rolls to 09:00",
			time.Date(1995, time.June, 5, 7, 0, 0, 0, time.UTC),
			time.Date(1995, time.June, 5, 9, 0, 0, 0, time.UTC)},
		{"after window rolls to next day",
			time.Date(1995, time.June, 5, 18, 0, 0, 0, time.UTC),
			time.Date(1995, time.June, 6, 9, 0, 0, 0, time.UTC)},
		{"weekend rolls to Monday",
			time.Date(1995, time.June, 10, 11, 0, 0, 0, time.UTC),
			time.Date(1995, time.June, 12, 9, 0, 0, 0, time.UTC)},
	}
	for _, tc := range cases {
		if got := cal.NextWorkInstant(tc.in); !got.Equal(tc.want) {
			t.Errorf("%s: NextWorkInstant(%v) = %v, want %v", tc.name, tc.in, got, tc.want)
		}
	}
}

func TestAddWorkWithinDay(t *testing.T) {
	cal := Standard()
	start := time.Date(1995, time.June, 5, 9, 0, 0, 0, time.UTC)
	got := cal.AddWork(start, 4*time.Hour)
	want := start.Add(4 * time.Hour)
	if !got.Equal(want) {
		t.Fatalf("AddWork 4h = %v, want %v", got, want)
	}
}

func TestAddWorkSpansWeekend(t *testing.T) {
	cal := Standard()
	// Friday 09:00 + 16h of work = Monday 17:00.
	fri := time.Date(1995, time.June, 9, 9, 0, 0, 0, time.UTC)
	got := cal.AddWork(fri, 16*time.Hour)
	want := time.Date(1995, time.June, 12, 17, 0, 0, 0, time.UTC)
	if !got.Equal(want) {
		t.Fatalf("AddWork over weekend = %v, want %v", got, want)
	}
}

func TestAddWorkZero(t *testing.T) {
	cal := Standard()
	// Zero work from a non-working instant still rolls forward to work time.
	sat := time.Date(1995, time.June, 10, 12, 0, 0, 0, time.UTC)
	got := cal.AddWork(sat, 0)
	want := time.Date(1995, time.June, 12, 9, 0, 0, 0, time.UTC)
	if !got.Equal(want) {
		t.Fatalf("AddWork(sat, 0) = %v, want %v", got, want)
	}
}

func TestAddWorkNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddWork negative did not panic")
		}
	}()
	Standard().AddWork(Epoch, -time.Minute)
}

func TestHolidaySkipped(t *testing.T) {
	tue := time.Date(1995, time.June, 6, 0, 0, 0, 0, time.UTC)
	cal, err := NewCalendar([]time.Weekday{
		time.Monday, time.Tuesday, time.Wednesday, time.Thursday, time.Friday,
	}, 9*time.Hour, 17*time.Hour, tue)
	if err != nil {
		t.Fatal(err)
	}
	// Monday 09:00 + 10h: 8h Monday, then Tuesday is a holiday, so the
	// remaining 2h land Wednesday 09:00–11:00.
	got := cal.AddWork(Epoch, 10*time.Hour)
	want := time.Date(1995, time.June, 7, 11, 0, 0, 0, time.UTC)
	if !got.Equal(want) {
		t.Fatalf("AddWork over holiday = %v, want %v", got, want)
	}
}

func TestWorkBetween(t *testing.T) {
	cal := Standard()
	a := time.Date(1995, time.June, 9, 13, 0, 0, 0, time.UTC)  // Friday 13:00
	b := time.Date(1995, time.June, 12, 11, 0, 0, 0, time.UTC) // Monday 11:00
	// Friday 13:00–17:00 (4h) + Monday 09:00–11:00 (2h) = 6h.
	if got := cal.WorkBetween(a, b); got != 6*time.Hour {
		t.Fatalf("WorkBetween = %v, want 6h", got)
	}
	if got := cal.WorkBetween(b, a); got != 0 {
		t.Fatalf("WorkBetween reversed = %v, want 0", got)
	}
}

func TestContinuousCalendarIsElapsed(t *testing.T) {
	cal := Continuous()
	got := cal.AddWork(Epoch, 100*time.Hour)
	want := Epoch.Add(100 * time.Hour)
	if !got.Equal(want) {
		t.Fatalf("Continuous AddWork = %v, want %v", got, want)
	}
	if d := cal.WorkBetween(Epoch, want); d != 100*time.Hour {
		t.Fatalf("Continuous WorkBetween = %v, want 100h", d)
	}
}

func TestWorkdays(t *testing.T) {
	if got := Standard().Workdays(3); got != 24*time.Hour {
		t.Fatalf("Workdays(3) = %v, want 24h of work", got)
	}
}

// Property: AddWork then WorkBetween is the identity on working durations.
func TestAddWorkWorkBetweenRoundTrip(t *testing.T) {
	cal := Standard()
	f := func(startOffsetMin uint16, workMin uint16) bool {
		start := Epoch.Add(time.Duration(startOffsetMin) * time.Minute)
		work := time.Duration(workMin) * time.Minute
		start = cal.NextWorkInstant(start)
		end := cal.AddWork(start, work)
		return cal.WorkBetween(start, end) == work
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: AddWork is monotone in its work argument.
func TestAddWorkMonotone(t *testing.T) {
	cal := Standard()
	f := func(a, b uint16) bool {
		wa := time.Duration(a) * time.Minute
		wb := time.Duration(b) * time.Minute
		ta := cal.AddWork(Epoch, wa)
		tb := cal.AddWork(Epoch, wb)
		if wa <= wb {
			return !ta.After(tb)
		}
		return !tb.After(ta)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: work composed across two AddWork calls equals one call.
func TestAddWorkComposes(t *testing.T) {
	cal := Standard()
	f := func(a, b uint16) bool {
		wa := time.Duration(a) * time.Minute
		wb := time.Duration(b) * time.Minute
		step := cal.AddWork(cal.AddWork(Epoch, wa), wb)
		whole := cal.AddWork(Epoch, wa+wb)
		return step.Equal(whole)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
