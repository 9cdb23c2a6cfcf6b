package scenario

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// maxScale bounds an edit's scale factor: a thousandfold slowdown is
// past any schedule question, and the bound keeps a scaled runtime far
// from the int64 range of a time.Duration.
const maxScale = 1000

// ParseEdit parses one scenario spec of the form
// "name=Act*1.5;Act+3h;parallel": scale factors in (0, 1000] multiply
// an activity's tool runtime, "+duration" injects a delay (Go durations
// plus a "d" suffix meaning 8-hour working days), and "parallel"
// switches the fork to team-parallel execution. Shared by the hercules
// CLI and the HTTP serving layer so both speak the same what-if
// vocabulary.
func ParseEdit(spec string) (Edit, error) {
	var e Edit
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" {
		return e, fmt.Errorf("bad scenario %q (want name=edit;edit;...)", spec)
	}
	e.Name = name
	for _, part := range strings.Split(rest, ";") {
		switch {
		case part == "parallel":
			e.Parallel = true
		case strings.Contains(part, "*"):
			act, val, _ := strings.Cut(part, "*")
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return e, fmt.Errorf("bad scale %q in scenario %q", part, name)
			}
			if !(f > 0 && f <= maxScale) { // also rejects NaN
				return e, fmt.Errorf("bad scale %q in scenario %q: factor %s must be in (0, %d]", part, name, val, maxScale)
			}
			if e.Scale == nil {
				e.Scale = make(map[string]float64)
			}
			e.Scale[act] = f
		case strings.Contains(part, "+"):
			act, val, _ := strings.Cut(part, "+")
			d, err := ParseWorkDuration(val)
			if err != nil {
				return e, fmt.Errorf("bad delay %q in scenario %q: %v", part, name, err)
			}
			if e.Delay == nil {
				e.Delay = make(map[string]time.Duration)
			}
			e.Delay[act] = d
		default:
			return e, fmt.Errorf("bad edit %q in scenario %q (want Act*factor, Act+duration, or parallel)", part, name)
		}
	}
	return e, nil
}

// ParseWorkDuration accepts Go durations plus a "d" suffix meaning
// 8-hour working days ("2d" = 16h of working time). A day count whose
// duration is not finite or does not fit a time.Duration is an error:
// Go leaves such float-to-integer conversions implementation-defined.
func ParseWorkDuration(v string) (time.Duration, error) {
	if strings.HasSuffix(v, "d") {
		n, err := strconv.ParseFloat(strings.TrimSuffix(v, "d"), 64)
		if err != nil {
			return 0, fmt.Errorf("bad duration %q", v)
		}
		d := n * 8 * float64(time.Hour)
		if !(math.Abs(d) < math.MaxInt64) { // also rejects NaN
			return 0, fmt.Errorf("bad duration %q: out of range", v)
		}
		return time.Duration(d), nil
	}
	return time.ParseDuration(v)
}
