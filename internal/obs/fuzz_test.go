package obs

import "testing"

// FuzzParseTraceparent: ParseTraceparent never panics, and every trace
// ID it accepts is well formed and survives FormatTraceparent →
// ParseTraceparent unchanged.
func FuzzParseTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, h string) {
		id, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		if len(id) != 32 || !isHex(id) {
			t.Fatalf("ParseTraceparent(%q) accepted trace ID %q", h, id)
		}
		tp := FormatTraceparent(id)
		if got, ok := ParseTraceparent(tp); !ok || got != id {
			t.Fatalf("trace ID %q from %q: FormatTraceparent gives %q, which parses to %q/%v", id, h, tp, got, ok)
		}
	})
}
