package vclock

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// maxDuration is the largest time.Duration. WorkBetween saturates at it,
// as time.Time.Sub does.
const maxDuration = time.Duration(math.MaxInt64)

const secondsPerDay = 24 * 60 * 60

// maxDay bounds the day numbers the closed forms handle (about three
// billion years either side of 1970), so that their int64 arithmetic
// cannot overflow. Instants beyond it take the day walk.
const maxDay = 1 << 40

// Calendar models working time: which weekdays are worked, the daily
// working window, and holidays. Schedule arithmetic (AddWork,
// WorkBetween) skips non-working time, so a 16h task started Friday
// 09:00 on a standard calendar finishes Monday 17:00, not Saturday
// 01:00.
//
// A Calendar is immutable once made, so one may be shared by any number
// of goroutines. The zero Calendar is invalid; use Standard or
// NewCalendar.
type Calendar struct {
	workdays [7]bool       // indexed by time.Weekday
	dayStart time.Duration // offset from midnight, e.g. 9h
	dayEnd   time.Duration // offset from midnight, e.g. 17h
	daily    time.Duration // dayEnd - dayStart
	perWeek  int64         // number of working days per week
	// Day numbers count civil days from 1970-01-01, a Thursday, and
	// weeks are counted from there. before[k] is the number of working
	// weekdays among the first k days of such a week; nth[r] is the
	// index within the week of its r-th working weekday.
	before [8]int64
	nth    [7]int64
	// hols holds the day numbers of the holidays that fall on working
	// weekdays, sorted and without duplicates.
	hols []int64
}

// Standard returns the conventional Monday–Friday, 09:00–17:00 calendar.
func Standard() *Calendar {
	c, err := NewCalendar([]time.Weekday{
		time.Monday, time.Tuesday, time.Wednesday, time.Thursday, time.Friday,
	}, 9*time.Hour, 17*time.Hour)
	if err != nil {
		panic(err) // static arguments; cannot fail
	}
	return c
}

// Continuous returns a 24×7 calendar in which working time equals elapsed
// time. It is useful for benchmarks and for compute-farm activities that
// run unattended.
func Continuous() *Calendar {
	c, err := NewCalendar([]time.Weekday{
		time.Sunday, time.Monday, time.Tuesday, time.Wednesday,
		time.Thursday, time.Friday, time.Saturday,
	}, 0, 24*time.Hour)
	if err != nil {
		panic(err)
	}
	return c
}

// NewCalendar builds a calendar from a set of working weekdays, a daily
// window [dayStart, dayEnd) expressed as offsets from midnight, and
// holidays: the civil date of each holiday, in the holiday's own
// location, is not worked.
func NewCalendar(days []time.Weekday, dayStart, dayEnd time.Duration, holidays ...time.Time) (*Calendar, error) {
	if len(days) == 0 {
		return nil, fmt.Errorf("vclock: calendar needs at least one working day")
	}
	if dayStart < 0 || dayEnd > 24*time.Hour || dayStart >= dayEnd {
		return nil, fmt.Errorf("vclock: invalid daily window [%v, %v)", dayStart, dayEnd)
	}
	c := &Calendar{dayStart: dayStart, dayEnd: dayEnd, daily: dayEnd - dayStart}
	for _, d := range days {
		if d < 0 || d > 6 {
			return nil, fmt.Errorf("vclock: invalid weekday %d", d)
		}
		c.workdays[d] = true
	}
	for k := int64(0); k < 7; k++ {
		c.before[k+1] = c.before[k]
		if c.workdays[weekday(k)] {
			c.nth[c.before[k]] = k
			c.before[k+1]++
		}
	}
	c.perWeek = c.before[7]
	for _, h := range holidays {
		if day, _ := split(h); c.workdays[weekday(day)] {
			c.hols = append(c.hols, day)
		}
	}
	slices.Sort(c.hols)
	c.hols = slices.Compact(c.hols)
	return c, nil
}

// DailyHours reports the length of the working window of one working day.
func (c *Calendar) DailyHours() time.Duration { return c.daily }

// IsWorkday reports whether the date containing t is a working day.
func (c *Calendar) IsWorkday(t time.Time) bool {
	day, _ := split(t)
	return c.isWorkday(day)
}

// Workdays converts a number of whole working days into working time.
func (c *Calendar) Workdays(n int) time.Duration {
	return time.Duration(n) * c.daily
}

// NextWorkInstant returns the earliest instant ≥ t that lies inside a
// working window.
func (c *Calendar) NextWorkInstant(t time.Time) time.Time { return c.AddWork(t, 0) }

// AddWork returns the instant at which an amount of working time `work`,
// started at t, completes. Starting instants outside working windows are
// first rolled forward to the next working instant. AddWork panics on
// negative work.
func (c *Calendar) AddWork(t time.Time, work time.Duration) time.Time {
	if work < 0 {
		panic(fmt.Sprintf("vclock: AddWork negative duration %v", work))
	}
	f := frameOf(t)
	day, off := f.split(t)
	n, noff := c.nextWork(day, off)
	end, endOff := n, noff+work
	if avail := c.dayEnd - noff; work > avail {
		// The rest fills k whole working days after day n and ends r
		// into the window of the next one (r == daily ends at its close).
		rest := work - avail
		k := int64((rest - 1) / c.daily)
		if k > maxDay {
			return c.walkAddWork(t, work)
		}
		end = c.nthWorkday(c.worked(n+1) + k)
		endOff = c.dayStart + rest - time.Duration(k)*c.daily
	}
	if !f.covers(day, end) {
		return c.walkAddWork(t, work)
	}
	if end == day && noff == off {
		return t.Add(work) // as the walk does: t keeps its monotonic reading
	}
	return f.at(end, endOff)
}

// WorkBetween reports the amount of working time between a and b.
// If b precedes a the result is zero; a result beyond the largest
// time.Duration saturates at it.
func (c *Calendar) WorkBetween(a, b time.Time) time.Duration {
	if !b.After(a) {
		return 0
	}
	f := frameOf(a)
	da, oa := f.split(a)
	db, ob := f.split(b)
	if !f.covers(da, db) {
		return c.walkWorkBetween(a, b)
	}
	pa, pb := c.worktime(da, oa), c.worktime(db, ob)
	days := c.worked(db) - c.worked(da)
	if days == 0 {
		return pb - pa
	}
	// (days-1)*daily + (daily-pa) + pb, checked before it can overflow.
	rest := c.daily - pa + pb
	if days-1 > int64((maxDuration-rest)/c.daily) {
		return maxDuration
	}
	return time.Duration(days-1)*c.daily + rest
}

// weekday returns the weekday of a day number.
func weekday(day int64) time.Weekday {
	return time.Weekday(floorMod(day+int64(time.Thursday), 7))
}

func (c *Calendar) isWorkday(day int64) bool {
	if !c.workdays[weekday(day)] {
		return false
	}
	_, hol := slices.BinarySearch(c.hols, day)
	return !hol
}

// worked counts the working days before day n from a fixed origin, so
// worked(b) - worked(a) is the number of working days in [a, b).
func (c *Calendar) worked(n int64) int64 {
	q := floorDiv(n, 7)
	h, _ := slices.BinarySearch(c.hols, n)
	return q*c.perWeek + c.before[n-7*q] - int64(h)
}

// nthWorkday inverts worked: it returns the working day n with
// worked(n) == k.
func (c *Calendar) nthWorkday(k int64) int64 {
	// Find the (k+skipped)-th working weekday, where skipped counts the
	// holidays up to it; each pass can only raise skipped, and it is
	// settled once no further holiday falls behind the answer.
	for skipped := int64(0); ; {
		x := k + skipped
		q := floorDiv(x, c.perWeek)
		n := 7*q + c.nth[x-q*c.perWeek]
		h, _ := slices.BinarySearch(c.hols, n+1)
		if int64(h) == skipped {
			return n
		}
		skipped = int64(h)
	}
}

// nextWork is NextWorkInstant on a day number and an offset into it.
func (c *Calendar) nextWork(day int64, off time.Duration) (int64, time.Duration) {
	if c.isWorkday(day) {
		if off < c.dayStart {
			return day, c.dayStart
		}
		if off < c.dayEnd {
			return day, off
		}
	}
	return c.nthWorkday(c.worked(day + 1)), c.dayStart
}

// worktime reports the working time of day up to offset off into it.
func (c *Calendar) worktime(day int64, off time.Duration) time.Duration {
	if !c.isWorkday(day) {
		return 0
	}
	return min(max(off-c.dayStart, 0), c.daily)
}

// frame is a location over a span of time in which its UTC offset is
// constant, so that civil days there are 86400 s long and map to
// instants by arithmetic.
type frame struct {
	loc    *time.Location
	offset int64 // seconds east of UTC
	lo, hi int64 // the span [lo, hi) in Unix seconds
}

// frameOf returns the frame of t's location around t: the zone period
// that contains t.
func frameOf(t time.Time) frame {
	_, off := t.Zone()
	start, end := t.ZoneBounds()
	f := frame{loc: t.Location(), offset: int64(off), lo: math.MinInt64, hi: math.MaxInt64}
	if !start.IsZero() {
		f.lo = start.Unix()
	}
	if !end.IsZero() {
		f.hi = end.Unix()
	}
	return f
}

// split returns the civil day number of t in its own location and the
// offset of t into that day.
func split(t time.Time) (day int64, off time.Duration) {
	_, zoff := t.Zone()
	return frame{offset: int64(zoff)}.split(t)
}

// split returns the day number and offset of t at the frame's offset.
func (f frame) split(t time.Time) (day int64, off time.Duration) {
	local := t.Unix() + f.offset
	day = floorDiv(local, secondsPerDay)
	return day, time.Duration(local-day*secondsPerDay)*time.Second + time.Duration(t.Nanosecond())
}

// at returns the instant off into day, in the frame's location.
func (f frame) at(day int64, off time.Duration) time.Time {
	return time.Unix(day*secondsPerDay-f.offset, 0).Add(off).In(f.loc)
}

// covers reports whether days first through last lie inside the frame
// with a day and the offset to spare on either side. The day walk reads
// no instant outside that span when it crosses those days — time.Date
// looks a civil time up first as if it were UTC — so there the closed
// forms and the walk see the same fixed offset.
func (f frame) covers(first, last int64) bool {
	if first < -maxDay || last > maxDay {
		return false
	}
	margin := secondsPerDay + max(f.offset, -f.offset)
	return first*secondsPerDay-f.offset-margin >= f.lo &&
		(last+1)*secondsPerDay-f.offset+margin < f.hi
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func floorMod(a, b int64) int64 { return a - floorDiv(a, b)*b }

// The day walk below visits one civil day at a time. It is the
// reference the closed forms above equal, and the path for spans in
// which a location's UTC offset changes.

// dayWindow returns the working window for the date containing t: from
// the instant its wall clock reads dayStart to the one it reads dayEnd,
// so that on a day with a clock change the window keeps its wall-clock
// hours, and a window ending at 24h ends at the next day's start.
func (c *Calendar) dayWindow(t time.Time) (start, end time.Time) {
	return wallClock(t, c.dayStart), wallClock(t, c.dayEnd)
}

// wallClock returns the first instant at which the wall clock of t's
// location reads off past the midnight of t's civil day (24h is the next
// day's midnight). A reading skipped by a clock change is reached at the
// change itself.
func wallClock(t time.Time, off time.Duration) time.Time {
	y, m, d := t.Date()
	w := time.Date(y, m, d, 0, 0, 0, int(off), t.Location())
	want := time.Date(y, m, d, 0, 0, 0, int(off), time.UTC).Unix()
	_, zoff := w.Zone()
	// time.Date places a skipped reading on one side of the gap or the
	// other; either way the gap's edge is the change.
	switch got := w.Unix() + int64(zoff); {
	case got < want:
		_, w = w.ZoneBounds()
	case got > want:
		w, _ = w.ZoneBounds()
	}
	return w
}

// nextMidnight returns the first instant of the civil day after t's.
func nextMidnight(t time.Time) time.Time {
	y, m, d := t.Date()
	next := time.Date(y, m, d+1, 0, 0, 0, 0, t.Location())
	if ny, nm, nd := next.Date(); ny == y && nm == m && nd == d {
		// Midnight fell in a gap that time.Date resolved into day d;
		// the next day begins where that zone period ends.
		_, next = next.ZoneBounds()
	}
	return next
}

func (c *Calendar) walkNextWorkInstant(t time.Time) time.Time {
	for i := 0; ; i++ {
		if i > 366*8 {
			// A calendar with ≥1 working weekday always finds a day within
			// two weeks plus holidays; this guard catches corrupted state.
			panic("vclock: no working day found within 8 years")
		}
		ws, we := c.dayWindow(t)
		if c.IsWorkday(t) {
			if t.Before(ws) {
				return ws
			}
			if t.Before(we) {
				return t
			}
		}
		t = nextMidnight(t)
	}
}

func (c *Calendar) walkAddWork(t time.Time, work time.Duration) time.Time {
	t = c.walkNextWorkInstant(t)
	for work > 0 {
		_, we := c.dayWindow(t)
		avail := we.Sub(t)
		if avail >= work {
			return t.Add(work)
		}
		work -= avail
		t = c.walkNextWorkInstant(we)
	}
	return t
}

func (c *Calendar) walkWorkBetween(a, b time.Time) time.Duration {
	if !b.After(a) {
		return 0
	}
	var total time.Duration
	t := c.walkNextWorkInstant(a)
	for t.Before(b) {
		_, we := c.dayWindow(t)
		end := we
		if b.Before(we) {
			end = b
		}
		if d := end.Sub(t); d > 0 {
			if total > maxDuration-d {
				return maxDuration
			}
			total += d
		}
		t = c.walkNextWorkInstant(we)
	}
	return total
}
