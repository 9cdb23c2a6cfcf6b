package serve

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// ifMatch runs parseIfMatch on a request carrying raw as its If-Match
// header.
func ifMatch(raw string) (uint64, bool, error) {
	r := httptest.NewRequest("POST", "/import", nil)
	r.Header.Set("If-Match", raw)
	return parseIfMatch(r)
}

func TestParseIfMatchQuoting(t *testing.T) {
	for _, raw := range []string{"5", `"5"`, ` "5" `} {
		if v, ok, err := ifMatch(raw); err != nil || !ok || v != 5 {
			t.Errorf("If-Match %q = %d/%v/%v, want 5", raw, v, ok, err)
		}
	}
	for _, raw := range []string{`"5`, `5"`, `""5""`, `"`, `""`, `W/"5"`, `"5"6"`} {
		if v, ok, err := ifMatch(raw); err == nil {
			t.Errorf("If-Match %q accepted as %d/%v", raw, v, ok)
		}
	}
}

// FuzzParseIfMatch: parseIfMatch never panics, accepts only a version
// that is bare or in exactly one pair of quotes, and every accepted
// version re-formats, bare and quoted, to itself.
func FuzzParseIfMatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw string) {
		v, ok, err := ifMatch(raw)
		if err != nil {
			return
		}
		trimmed := strings.TrimSpace(raw)
		if !ok {
			if trimmed != "" {
				t.Fatalf("If-Match %q: no error, yet no version", raw)
			}
			return
		}
		digits := strings.TrimSuffix(strings.TrimPrefix(trimmed, `"`), `"`)
		if (digits != trimmed && `"`+digits+`"` != trimmed) || strings.Trim(digits, "0123456789") != "" {
			t.Fatalf("If-Match %q accepted as %d: not a bare or once-quoted version", raw, v)
		}
		bare := strconv.FormatUint(v, 10)
		for _, again := range []string{bare, `"` + bare + `"`} {
			if v2, ok2, err2 := ifMatch(again); err2 != nil || !ok2 || v2 != v {
				t.Fatalf("If-Match %q = %d, but its form %q = %d/%v/%v", raw, v, again, v2, ok2, err2)
			}
		}
	})
}
