package scenario

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestParseEditRejectsOutOfRange: values whose conversion to a runtime
// Go leaves implementation-defined are parse errors that name the value.
func TestParseEditRejectsOutOfRange(t *testing.T) {
	for _, c := range []struct{ spec, bad string }{
		{"x=Route*NaN", "NaN"},
		{"x=Route*Inf", "Inf"},
		{"x=Route*-Inf", "-Inf"},
		{"x=Route*1e300", "1e300"},
		{"x=Route*1000.5", "1000.5"},
		{"x=Route*0", "0"},
		{"x=Route*-2", "-2"},
		{"x=Route+1e300d", "1e300d"},
		{"x=Route+-1e300d", "-1e300d"},
		{"x=Route+NaNd", "NaNd"},
		{"x=Route+Infd", "Infd"},
	} {
		if _, err := ParseEdit(c.spec); err == nil || !strings.Contains(err.Error(), c.bad) {
			t.Errorf("ParseEdit(%q) = %v, want an error naming %q", c.spec, err, c.bad)
		}
	}
	e, err := ParseEdit("x=Route*1000;Place+-1.5d;Route+3h;parallel")
	if err != nil {
		t.Fatal(err)
	}
	if e.Scale["Route"] != maxScale || e.Delay["Place"] != -12*time.Hour || e.Delay["Route"] != 3*time.Hour || !e.Parallel {
		t.Fatalf("in-range edit parsed as %+v", e)
	}
}

// TestApplyRejectsOverflowingRuntime: an edit built in code skips the
// parser, so applying it must still refuse a runtime that does not fit
// a time.Duration.
func TestApplyRejectsOverflowingRuntime(t *testing.T) {
	for _, e := range []Edit{
		{Name: "nan", Scale: map[string]float64{"Simulate": math.NaN()}},
		{Name: "huge", Scale: map[string]float64{"Simulate": 1e300}},
		{Name: "late", Scale: map[string]float64{"Simulate": 2}, Delay: map[string]time.Duration{"Simulate": math.MaxInt64}},
	} {
		if err := Apply(ready(t), e); err == nil || !strings.Contains(err.Error(), "overflows") {
			t.Errorf("Apply(%s) = %v, want an overflow error", e.Name, err)
		}
	}
}

// TestEstimateRejectsOverflow: a scale that fits the runtime (so Apply
// takes it) can still push the PERT bounds past a time.Duration. The
// estimate must refuse it by name, in a sweep and on a live project,
// rather than wrap to a negative bound.
func TestEstimateRejectsOverflow(t *testing.T) {
	e := Edit{Name: "huge", Scale: map[string]float64{"Create": 1e5}}
	m := ready(t)
	if _, err := Sweep(m, []string{"performance"}, []Edit{e}, Options{}); err == nil ||
		!strings.Contains(err.Error(), `estimate for "Create"`) || !strings.Contains(err.Error(), "overflows a duration") {
		t.Fatalf("sweep at scale 1e5 = %v, want an overflow error naming Create", err)
	}
	if err := Apply(m, e); err != nil {
		t.Fatalf("Apply at scale 1e5 = %v; the runtime itself fits", err)
	}
	est, err := ProfileEstimator{Tools: m.Tools}.Estimate("Create", nil)
	if err == nil || !strings.Contains(err.Error(), `estimate for "Create"`) || !strings.Contains(err.Error(), "overflows a duration") {
		t.Fatalf("Estimate after the edit = %+v, %v; want an overflow error naming Create", est, err)
	}
	if est, err := (ProfileEstimator{Tools: m.Tools}).Estimate("Simulate", nil); err != nil || est.Pessimistic <= est.Work {
		t.Fatalf("an unedited activity estimates to %+v, %v", est, err)
	}
}

// FuzzParseEdit: the what-if parser behind /whatif, POST /edit and the
// CLI never panics, and every edit it accepts has finite scale factors
// in (0, maxScale] and delays that are the faithful value of their
// spelling. Each input is also fed to ParseWorkDuration alone.
func FuzzParseEdit(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		checkWorkDuration(t, spec)
		e, err := ParseEdit(spec)
		if err != nil {
			return
		}
		if e.Name == "" {
			t.Fatalf("ParseEdit(%q) accepted an unnamed edit", spec)
		}
		for act, k := range e.Scale {
			if !(k > 0 && k <= maxScale) { // also rejects NaN
				t.Fatalf("ParseEdit(%q) accepted scale %g for %q", spec, k, act)
			}
		}
		_, rest, _ := strings.Cut(spec, "=")
		for _, part := range strings.Split(rest, ";") {
			if _, val, ok := strings.Cut(part, "+"); ok && !strings.Contains(part, "*") {
				checkWorkDuration(t, val)
			}
		}
	})
}

// checkWorkDuration asserts that an accepted day count converts to
// within a nanosecond of its value, never to a wrapped one.
func checkWorkDuration(t *testing.T, v string) {
	d, err := ParseWorkDuration(v)
	if err != nil || !strings.HasSuffix(v, "d") {
		return
	}
	n, perr := strconv.ParseFloat(strings.TrimSuffix(v, "d"), 64)
	if perr != nil {
		t.Fatalf("ParseWorkDuration(%q) accepted an unparseable day count", v)
	}
	if want := n * 8 * float64(time.Hour); !(math.Abs(float64(d)-want) < 1) {
		t.Fatalf("ParseWorkDuration(%q) = %d ns, want %g ns", v, int64(d), want)
	}
}
