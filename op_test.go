package flowsched

import (
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"
)

// opQuery parses a test query, failing the test on malformed input.
func opQuery(t *testing.T, raw string) url.Values {
	t.Helper()
	q, err := url.ParseQuery(raw)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestParseOpGrammar pins the accepted forms and the defaults of each
// op kind, and the rejections every front end shares.
func TestParseOpGrammar(t *testing.T) {
	at := time.Date(1995, 6, 9, 17, 0, 0, 0, time.UTC)
	for _, c := range []struct {
		kind, query string
		want        Op
	}{
		{"plan", "", Op{Kind: "plan", Hours: 8}},
		{"plan", "targets=a,b&hours=6", Op{Kind: "plan", Targets: []string{"a", "b"}, Hours: 6}},
		{"run", "", Op{Kind: "run", AutoComplete: true}},
		{"run", "targets=a&parallel=1&autocomplete=false", Op{Kind: "run", Targets: []string{"a"}, Parallel: true}},
		{"complete", "activity=Create&entity=e1", Op{Kind: "complete", Activity: "Create", Entity: "e1"}},
		{"milestone", "name=m&class=c&target=1995-06-09T17:00", Op{Kind: "milestone", Name: "m", Class: "c", Target: at}},
		{"milestone", "name=m&class=c&target=1995-06-09T17:00:00Z", Op{Kind: "milestone", Name: "m", Class: "c", Target: at}},
		{"milestone", "name=m&class=c&target=1995-06-09T17:00:00%2B00:00", Op{Kind: "milestone", Name: "m", Class: "c", Target: at}},
		{"propagate", "targets=ignored", Op{Kind: "propagate"}},
		{"edit", "spec=crunch=Simulate*0.5", Op{Kind: "edit", Spec: "crunch=Simulate*0.5"}},
	} {
		got, err := ParseOp(c.kind, opQuery(t, c.query), nil)
		if err != nil {
			t.Errorf("ParseOp(%s, %q): %v", c.kind, c.query, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseOp(%s, %q) = %#v, want %#v", c.kind, c.query, got, c.want)
		}
	}
	for _, c := range []struct{ kind, query, want string }{
		{"plan", "hours=0", `bad hours "0"`},
		{"plan", "hours=eight", `bad hours "eight"`},
		{"run", "parallel=yes", `bad parallel "yes"`},
		{"run", "autocomplete=maybe", `bad autocomplete "maybe"`},
		{"complete", "activity=Create", "missing entity"},
		{"import", "", "missing class"},
		{"milestone", "name=m&class=c", "milestone needs"},
		{"milestone", "name=m&class=c&target=1995-06-09", "bad target date"},
		{"edit", "", "missing spec"},
		{"edit", "spec=nonsense", "edit"},
		{"dance", "", `unknown op "dance"`},
	} {
		if _, err := ParseOp(c.kind, opQuery(t, c.query), nil); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseOp(%s, %q) = %v, want an error naming %q", c.kind, c.query, err, c.want)
		}
	}
}

// TestOpStringIsCanonical: defaults are omitted, keys sorted, and the
// text form decodes back to the same op.
func TestOpStringIsCanonical(t *testing.T) {
	for query, want := range map[string]string{
		"hours=8&targets=b,a":  "plan?targets=b%2Ca",
		"targets=x&hours=6":    "plan?hours=6&targets=x",
		"":                     "plan",
		"targets=x&hours=0008": "plan?targets=x",
	} {
		op, err := ParseOp("plan", opQuery(t, query), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := op.String(); got != want {
			t.Errorf("plan %q: String = %q, want %q", query, got, want)
		}
		var back Op
		if err := back.UnmarshalText([]byte(op.String())); err != nil || !reflect.DeepEqual(back, op) {
			t.Errorf("UnmarshalText(%q) = %#v, %v; want %#v", op.String(), back, err, op)
		}
	}
}

// TestOpApplyDefaultTargets pins the one default-target rule: a plan or
// run without targets takes the tracked plan's, and is an error before
// the first plan.
func TestOpApplyDefaultTargets(t *testing.T) {
	p, err := New(Fig4Schema, Options{Designer: "ewj"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.UseSimulatedTools(); err != nil {
		t.Fatal(err)
	}
	if _, err := (Op{Kind: "run"}).Apply(p); err == nil || !strings.Contains(err.Error(), "no targets") {
		t.Fatalf("run before any plan = %v, want the no-targets error", err)
	}
	imp, err := ParseOp("import", opQuery(t, "class=stimuli"), []byte("pulse 0 5 1ns"))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := imp.Apply(p); err != nil || res.ID == "" {
		t.Fatalf("import = %+v, %v", res, err)
	}
	plan, err := ParseOp("plan", opQuery(t, "targets=performance&hours=6"), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Apply(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || !reflect.DeepEqual(res.Targets, []string{"performance"}) {
		t.Fatalf("plan result = %+v", res)
	}
	run, err := ParseOp("run", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res, err = run.Apply(p); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Targets, []string{"performance"}) || res.Run == nil || len(res.Run.Outcomes) == 0 {
		t.Fatalf("run without targets = %+v, want the plan's targets executed", res)
	}
}

// FuzzParseOp fuzzes the write grammar: ParseOp never panics, and every
// op it accepts has a String form that parses back, with the op's body
// beside it, to a deep-equal op.
func FuzzParseOp(f *testing.F) {
	for _, s := range []struct{ kind, query, body string }{
		{"plan", "targets=performance&hours=6", ""},
		{"plan", "hours=0", ""},
		{"run", "targets=a,,b&parallel=1&autocomplete=F", ""},
		{"run", "parallel=yes", ""},
		{"track", "", "Create,1995-06-05T09:00,1995-06-06T17:00,true\n"},
		{"complete", "activity=Create&entity=stimuli%2F1", ""},
		{"import", "class=stimuli", "pulse 0 5 1ns"},
		{"import", "class=stimuli", ""},
		{"milestone", "name=m&class=performance&target=1995-06-09T17:00", ""},
		{"milestone", "name=m&class=performance&target=1995-06-09T19:00:00.5%2B02:00", ""},
		{"milestone", "name=m&class=performance&target=1995-06-09T17:00:00-00:00", ""},
		{"propagate", "fork=x", ""},
		{"edit", "spec=crunch=Simulate*0.5;Create%2B3h", ""},
		{"dance", "", ""},
	} {
		f.Add(s.kind, s.query, []byte(s.body))
	}
	f.Fuzz(func(t *testing.T, kind, query string, body []byte) {
		q, err := url.ParseQuery(query)
		if err != nil {
			return
		}
		op, err := ParseOp(kind, q, body)
		if err != nil {
			return
		}
		var back Op
		if err := back.UnmarshalText([]byte(op.String())); err != nil {
			t.Fatalf("String %q of an accepted op does not parse: %v", op.String(), err)
		}
		back.Body = op.Body // the body travels beside the String form
		if !reflect.DeepEqual(back, op) {
			t.Fatalf("round trip through %q:\n got %#v\nwant %#v", op.String(), back, op)
		}
	})
}
