package vclock

import (
	"math/rand"
	"testing"
	"time"
	_ "time/tzdata" // the DST locations below, on any host
)

// testLocations mixes UTC, fixed offsets and locations with clock
// changes: an hour at 02:00 (New York, London), half an hour (Lord
// Howe), at midnight, where time.Date resolves a skipped midnight into
// the day before (Havana, Santiago), and a skipped civil day (Apia,
// 2011-12-30).
var testLocations = func() []*time.Location {
	locs := []*time.Location{
		time.UTC,
		time.FixedZone("+0530", 5*3600+1800),
		time.FixedZone("-11", -11*3600),
	}
	for _, name := range []string{
		"America/New_York", "Europe/London", "Australia/Lord_Howe",
		"America/Havana", "America/Santiago", "Pacific/Apia",
	} {
		loc, err := time.LoadLocation(name)
		if err != nil {
			panic(err)
		}
		locs = append(locs, loc)
	}
	return locs
}()

func mustLocation(t testing.TB, name string) *time.Location {
	t.Helper()
	loc, err := time.LoadLocation(name)
	if err != nil {
		t.Fatal(err)
	}
	return loc
}

// calendarCase turns raw numbers into a calendar, two instants and an
// amount of work: the working weekdays from mask, the window in
// quarter hours (plus a few nanoseconds of jitter) from window, up to
// eight holidays near a from hol, a location from loc, a within forty
// years of 1990 and b within a year of a (either side, sometimes
// in another location), and work of up to 120 days. The top bits of
// span and work scale them down, so short spans are as common as long.
func calendarCase(tb testing.TB, mask uint8, window uint32, hol uint64, loc uint8, at, span, work int64) (*Calendar, time.Time, time.Time, time.Duration) {
	tb.Helper()
	var days []time.Weekday
	for d := time.Sunday; d <= time.Saturday; d++ {
		if mask&(1<<d) != 0 {
			days = append(days, d)
		}
	}
	if len(days) == 0 {
		days = []time.Weekday{time.Monday}
	}
	q0 := window % 96
	q1 := q0 + 1 + (window/96)%(96-q0)
	dayStart, dayEnd := time.Duration(q0)*15*time.Minute, time.Duration(q1)*15*time.Minute
	if window&(1<<20) != 0 {
		dayStart += time.Duration(window>>21) % time.Minute
	}
	l := testLocations[int(loc)%len(testLocations)]
	const year = 365 * 24 * time.Hour
	base := time.Date(1990, time.January, 1, 0, 0, 0, 0, time.UTC)
	a := base.Add(time.Duration(at % int64(40*year))).In(l)
	b := a.Add(time.Duration(span%int64(year)) >> (uint64(span) >> 59))
	if span&1 != 0 {
		b = b.In(testLocations[int(uint64(span)>>1)%len(testLocations)])
	}
	var hols []time.Time
	for i, n := 0, hol%9; uint64(i) < n; i++ {
		hol = hol*6364136223846793005 + 1442695040888963407
		h := a.Add(time.Duration(int64(hol>>33)%(70*24)-10*24) * time.Hour)
		if hol&(1<<7) != 0 {
			h = h.UTC()
		}
		hols = append(hols, h)
	}
	cal, err := NewCalendar(days, dayStart, dayEnd, hols...)
	if err != nil {
		tb.Fatal(err)
	}
	w := work % int64(120*24*time.Hour)
	if w < 0 {
		w = -w
	}
	return cal, a, b, time.Duration(w >> (uint64(work) >> 59))
}

// checkCalendar compares NextWorkInstant, AddWork and WorkBetween with
// the day walk, and with the walk as it was before it stepped by civil
// midnights wherever that one returned without overflow and never left
// a midnight.
func checkCalendar(t testing.TB, cal *Calendar, a, b time.Time, work time.Duration) {
	t.Helper()
	if got, want := cal.NextWorkInstant(a), cal.walkNextWorkInstant(a); got != want {
		t.Fatalf("NextWorkInstant(%v) = %v, walk %v", a, got, want)
	}
	if got, want := cal.AddWork(a, work), cal.walkAddWork(a, work); got != want {
		t.Fatalf("AddWork(%v, %v) = %v, walk %v", a, work, got, want)
	}
	wb := cal.walkWorkBetween(a, b)
	if got := cal.WorkBetween(a, b); got != wb {
		t.Fatalf("WorkBetween(%v, %v) = %v, walk %v", a, b, got, wb)
	}
	old := &parentWalk{c: cal}
	if got, ok := old.run(func() any { return old.nextWorkInstant(a) }); ok && got != cal.NextWorkInstant(a) {
		t.Fatalf("NextWorkInstant(%v) = %v, parent walk %v", a, cal.NextWorkInstant(a), got)
	}
	if got, ok := old.run(func() any { return old.addWork(a, work) }); ok && got != cal.AddWork(a, work) {
		t.Fatalf("AddWork(%v, %v) = %v, parent walk %v", a, work, cal.AddWork(a, work), got)
	}
	if got, ok := old.run(func() any { return old.workBetween(a, b) }); ok && wb != maxDuration && got != wb {
		t.Fatalf("WorkBetween(%v, %v) = %v, parent walk %v", a, b, wb, got)
	}
}

// parentWalk is the day walk as it stood before it stepped by civil
// midnights and kept the working window on the wall clock. It stepped
// to the next day by adding 24 hours to the day's midnight: on a
// 25-hour day that stays inside the day, so it panicked, and after a
// 23-hour day it lands an hour into the next one. It placed the window
// at elapsed offsets from midnight, an hour off the wall clock on such
// days. differs records the last two.
type parentWalk struct {
	c       *Calendar
	differs bool
}

// run calls fn and reports its result, and whether it returned without
// panicking, without leaving a civil midnight and without reading a
// window that differs from the calendar's.
func (w *parentWalk) run(fn func() any) (v any, ok bool) {
	w.differs = false
	defer func() {
		if recover() != nil {
			v, ok = nil, false
		}
	}()
	v = fn()
	return v, !w.differs
}

// dayWindow is the window as the parent walk placed it.
func (w *parentWalk) dayWindow(t time.Time) (start, end time.Time) {
	y, m, d := t.Date()
	midnight := time.Date(y, m, d, 0, 0, 0, 0, t.Location())
	start, end = midnight.Add(w.c.dayStart), midnight.Add(w.c.dayEnd)
	if ws, we := w.c.dayWindow(t); !ws.Equal(start) || !we.Equal(end) {
		w.differs = true
	}
	return start, end
}

func (w *parentWalk) nextWorkInstant(t time.Time) time.Time {
	for i := 0; ; i++ {
		if i > 366*8 {
			panic("vclock: no working day found within 8 years")
		}
		ws, we := w.dayWindow(t)
		if w.c.IsWorkday(t) {
			if t.Before(ws) {
				return ws
			}
			if t.Before(we) {
				return t
			}
		}
		y, m, d := t.Date()
		next := time.Date(y, m, d, 0, 0, 0, 0, t.Location()).Add(24 * time.Hour)
		if !next.Equal(nextMidnight(t)) {
			w.differs = true
		}
		t = next
	}
}

func (w *parentWalk) addWork(t time.Time, work time.Duration) time.Time {
	t = w.nextWorkInstant(t)
	for work > 0 {
		_, we := w.dayWindow(t)
		avail := we.Sub(t)
		if avail >= work {
			return t.Add(work)
		}
		work -= avail
		t = w.nextWorkInstant(we)
	}
	return t
}

func (w *parentWalk) workBetween(a, b time.Time) time.Duration {
	if !b.After(a) {
		return 0
	}
	var total time.Duration
	t := w.nextWorkInstant(a)
	for t.Before(b) {
		_, we := w.dayWindow(t)
		end := we
		if b.Before(we) {
			end = b
		}
		if end.After(t) {
			total += end.Sub(t)
		}
		t = w.nextWorkInstant(we)
	}
	return total
}

// TestClosedFormMatchesWalk is the seeded differential test behind
// FuzzCalendarArithmetic.
func TestClosedFormMatchesWalk(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	n := 1000
	if testing.Short() {
		n = 100
	}
	for i := 0; i < n; i++ {
		cal, a, b, work := calendarCase(t, uint8(r.Uint32()), r.Uint32(), r.Uint64(),
			uint8(i), r.Int63()-r.Int63(), r.Int63()-r.Int63(), r.Int63())
		checkCalendar(t, cal, a, b, work)
	}
}

// TestClosedFormKeepsMonotonicReading checks that results the walk
// derives from the argument itself keep its monotonic clock reading.
func TestClosedFormKeepsMonotonicReading(t *testing.T) {
	now := time.Now()
	for _, cal := range []*Calendar{Standard(), Continuous()} {
		for _, d := range []time.Duration{0, time.Hour, 30 * time.Hour, 200 * time.Hour} {
			checkCalendar(t, cal, now, now.Add(d), d)
		}
	}
}

// TestStandardSpansYears checks long spans on the standard calendar,
// the shape every PM view asks for.
func TestStandardSpansYears(t *testing.T) {
	cal := Standard()
	for _, years := range []int{1, 10, 40} {
		end := Epoch.AddDate(years, 0, 0)
		checkCalendar(t, cal, Epoch, end, time.Duration(years)*2000*time.Hour)
	}
}

func TestDSTFallBackDoesNotPanic(t *testing.T) {
	ny := mustLocation(t, "America/New_York")
	// Friday before the 25-hour Sunday 2026-11-01: 5h on Friday, 8h on
	// Monday, and the last 3h on Tuesday.
	fri := time.Date(2026, time.October, 30, 12, 0, 0, 0, ny)
	want := time.Date(2026, time.November, 3, 12, 0, 0, 0, ny)
	if got := Standard().AddWork(fri, 16*time.Hour); got != want {
		t.Fatalf("AddWork over fall-back = %v, want %v", got, want)
	}
	if got := Standard().WorkBetween(fri, want); got != 16*time.Hour {
		t.Fatalf("WorkBetween over fall-back = %v, want 16h", got)
	}
	// The 25-hour day is worked whole: on a continuous calendar working
	// time equals the 49 hours elapsed.
	sat := time.Date(2026, time.October, 31, 0, 0, 0, 0, ny)
	mon := time.Date(2026, time.November, 2, 0, 0, 0, 0, ny)
	if got := Continuous().WorkBetween(sat, mon); got != 49*time.Hour {
		t.Fatalf("Continuous WorkBetween over fall-back = %v, want 49h", got)
	}
	if got := Continuous().AddWork(sat, 49*time.Hour); got != mon {
		t.Fatalf("Continuous AddWork(49h) over fall-back = %v, want %v", got, mon)
	}
}

// TestDSTWindowKeepsWallClock: on both clock-change days a seven-day
// 09:00–17:00 calendar works from 09:00 to 17:00 on the wall clock, not
// from nine elapsed hours after midnight, so each day holds 8h of work.
func TestDSTWindowKeepsWallClock(t *testing.T) {
	ny := mustLocation(t, "America/New_York")
	cal, err := NewCalendar([]time.Weekday{
		time.Sunday, time.Monday, time.Tuesday, time.Wednesday,
		time.Thursday, time.Friday, time.Saturday,
	}, 9*time.Hour, 17*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for _, day := range []time.Time{
		time.Date(2026, time.March, 8, 0, 0, 0, 0, ny),    // 23 hours
		time.Date(2026, time.November, 1, 0, 0, 0, 0, ny), // 25 hours
	} {
		y, m, d := day.Date()
		nine := time.Date(y, m, d, 9, 0, 0, 0, ny)
		five := time.Date(y, m, d, 17, 0, 0, 0, ny)
		if got := cal.NextWorkInstant(day); got != nine {
			t.Errorf("%s: window opens at %v, want %v", day.Format("2006-01-02"), got, nine)
		}
		if got := cal.AddWork(nine, 8*time.Hour); got != five {
			t.Errorf("%s: 8h from 09:00 ends at %v, want %v", day.Format("2006-01-02"), got, five)
		}
		if got := cal.WorkBetween(day, day.AddDate(0, 0, 1)); got != 8*time.Hour {
			t.Errorf("%s: the day holds %v of work, want 8h", day.Format("2006-01-02"), got)
		}
		if got := cal.AddWork(five, time.Minute); got != nine.AddDate(0, 0, 1).Add(time.Minute) {
			t.Errorf("%s: work after 17:00 resumes at %v", day.Format("2006-01-02"), got)
		}
	}
}

func TestWorkAfterShortDayCounted(t *testing.T) {
	ny := mustLocation(t, "America/New_York")
	cal, err := NewCalendar([]time.Weekday{time.Sunday, time.Monday}, 0, 8*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// Sunday 2026-03-08 has 23 hours. Stepping 24 hours from its
	// midnight lands at 01:00 on Monday and loses Monday's first hour of
	// work, which starts at midnight.
	a := time.Date(2026, time.March, 8, 12, 0, 0, 0, ny)
	b := time.Date(2026, time.March, 9, 2, 0, 0, 0, ny)
	if got := cal.WorkBetween(a, b); got != 2*time.Hour {
		t.Fatalf("WorkBetween after a 23-hour day = %v, want 2h", got)
	}
	if got, want := cal.NextWorkInstant(a), time.Date(2026, time.March, 9, 0, 0, 0, 0, ny); got != want {
		t.Fatalf("NextWorkInstant after a 23-hour day = %v, want %v", got, want)
	}
}

func TestSkippedMidnightAdvances(t *testing.T) {
	havana := mustLocation(t, "America/Havana")
	// Havana skips from 00:00 to 01:00 on 2023-03-12, and time.Date
	// resolves that midnight to 23:00 the day before.
	sat := time.Date(2023, time.March, 11, 18, 0, 0, 0, havana)
	want := time.Date(2023, time.March, 13, 9, 0, 0, 0, havana)
	if got := Standard().NextWorkInstant(sat); got != want {
		t.Fatalf("NextWorkInstant over skipped midnight = %v, want %v", got, want)
	}
}

func TestWorkBetweenSaturates(t *testing.T) {
	end := time.Date(9999, time.December, 31, 0, 0, 0, 0, time.UTC)
	if got := Standard().WorkBetween(Epoch, end); got != maxDuration {
		t.Fatalf("WorkBetween(Epoch, year 9999) = %v, want %v", got, maxDuration)
	}
	if got := Continuous().WorkBetween(end.Add(-maxDuration), end); got != maxDuration {
		t.Fatalf("Continuous WorkBetween over the largest Duration = %v", got)
	}
	if got := Continuous().WorkBetween(end.Add(-maxDuration).Add(-time.Nanosecond), end); got != maxDuration {
		t.Fatalf("Continuous WorkBetween past the largest Duration = %v", got)
	}
}

func TestHolidayInOwnLocation(t *testing.T) {
	tokyo := time.FixedZone("+09", 9*3600)
	// 1995-06-06 01:00 in Tokyo is still Monday 06-05 in UTC: the
	// holiday is Tuesday, the civil date in its own location.
	cal, err := NewCalendar([]time.Weekday{time.Monday, time.Tuesday, time.Wednesday},
		9*time.Hour, 17*time.Hour, time.Date(1995, time.June, 6, 1, 0, 0, 0, tokyo))
	if err != nil {
		t.Fatal(err)
	}
	if cal.IsWorkday(time.Date(1995, time.June, 6, 12, 0, 0, 0, time.UTC)) {
		t.Fatal("Tuesday holiday counted as a workday")
	}
	if !cal.IsWorkday(Epoch) {
		t.Fatal("Monday lost to a holiday given in another location")
	}
}

func FuzzCalendarArithmetic(f *testing.F) {
	f.Add(uint8(0x3e), uint32(36+32*96), uint64(0), uint8(0), int64(0), int64(72*time.Hour), int64(16*time.Hour))
	f.Fuzz(func(t *testing.T, mask uint8, window uint32, hol uint64, loc uint8, at, span, work int64) {
		cal, a, b, w := calendarCase(t, mask, window, hol, loc, at, span, work)
		checkCalendar(t, cal, a, b, w)
	})
}
