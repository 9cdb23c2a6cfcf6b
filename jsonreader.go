package flowsched

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// jsonReader is a cursor over one JSON document: the reading half of
// the durable codec, whose writing half is appendString, appendTime and
// appendRFC3339. Callers walk the document in the shape they expect —
// object and array hand each member to a callback, the other readers
// return the value under the cursor — and the first error sticks: every
// later read returns a zero value, and err says where decoding stopped.
//
// Strings, raw values and byte content are copied out, so a decoded
// value never shares memory with the input. Object keys match exactly.
// Invalid UTF-8 and lone surrogates in strings decode to U+FFFD, as
// they do in encoding/json. Raw values (entry payloads, skipped
// members) are copied verbatim; with validate set each is checked once
// with json.Valid, for input that no CRC guards.
type jsonReader struct {
	b        []byte
	i        int
	validate bool
	err      error
	tmp      []byte // unescaped string scratch
}

func (r *jsonReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("json offset %d: %s", r.i, fmt.Sprintf(format, args...))
	}
	r.i = len(r.b)
}

// mismatch fails on the value under the cursor, which is not want.
func (r *jsonReader) mismatch(want string) {
	switch c := r.peek(); {
	case r.i >= len(r.b):
		r.fail("unexpected end of JSON input")
	case c == '"':
		r.fail("cannot unmarshal string into %s", want)
	default:
		r.fail("want %s, found %q", want, c)
	}
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (r *jsonReader) peek() byte {
	for ; r.i < len(r.b); r.i++ {
		if c := r.b[r.i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

func (r *jsonReader) expect(c byte) {
	if r.peek() != c {
		r.mismatch(fmt.Sprintf("%q", c))
		return
	}
	r.i++
}

// end checks that only whitespace follows the document.
func (r *jsonReader) end() {
	if r.peek(); r.i < len(r.b) {
		r.fail("trailing bytes after the document")
	}
}

// null consumes a null literal and reports whether there was one.
func (r *jsonReader) null() bool {
	if r.peek() == 'n' && bytes.HasPrefix(r.b[r.i:], []byte("null")) {
		r.i += 4
		return true
	}
	return false
}

// object hands each member's key to fn, which must read the member's
// value. The key is valid only until fn reads a string. null is an
// empty object.
func (r *jsonReader) object(fn func(key []byte)) {
	r.members('{', '}', func(int) {
		if r.peek() != '"' {
			r.mismatch("an object key")
			return
		}
		key := r.bytes()
		r.expect(':')
		fn(key)
	})
}

// array hands each element's index to fn, which must read the element,
// and returns the element count. null is an empty array.
func (r *jsonReader) array(fn func(i int)) int { return r.members('[', ']', fn) }

func (r *jsonReader) members(open, close byte, fn func(i int)) int {
	n := 0
	if r.null() {
		return n
	}
	if r.expect(open); r.peek() == close {
		r.i++
		return n
	}
	for r.err == nil {
		fn(n)
		n++
		if r.peek() == close {
			r.i++
			break
		}
		r.expect(',')
	}
	return n
}

// tuple reads a positional array — a WAL record body — into ptrs, in
// order, and returns how many elements it held: at least least, and at
// most one per pointer.
func (r *jsonReader) tuple(least int, ptrs ...any) int {
	n := r.array(func(i int) {
		if i >= len(ptrs) {
			r.fail("more than %d fields", len(ptrs))
			return
		}
		switch p := ptrs[i].(type) {
		case *uint64:
			*p = r.uint64()
		case *uint32:
			*p = uint32(r.uint(math.MaxUint32))
		case *int:
			*p = r.int()
		case *string:
			*p = r.str()
		case *time.Time:
			*p = r.time()
		case *[]string:
			*p = r.strs()
		case *json.RawMessage:
			*p = r.raw()
		}
	})
	if n < least {
		r.fail("%d fields, want at least %d", n, least)
	}
	return n
}

// bytes reads a string and returns its unescaped bytes, which alias the
// input or the reader's scratch and are valid only until the next
// string read.
func (r *jsonReader) bytes() []byte {
	if r.peek() != '"' {
		r.mismatch("a string")
		return nil
	}
	start := r.i + 1
	out, plain := r.tmp[:0], true // plain: the string so far is b[start:i]
	for i := start; ; {
		run := i
		for i < len(r.b) && plainByte[r.b[i]] {
			i++
		}
		if !plain {
			out = append(out, r.b[run:i]...)
		}
		if i >= len(r.b) {
			r.fail("unterminated string")
			return nil
		}
		switch c := r.b[i]; {
		case c == '"':
			r.i = i + 1
			if plain {
				return r.b[start:i]
			}
			r.tmp = out
			return out
		case c < 0x20:
			r.fail("control character in a string")
			return nil
		case c == '\\':
			if plain {
				out, plain = append(out, r.b[start:i]...), false
			}
			r.i = i
			if out = r.escape(out); r.err != nil {
				return nil
			}
			i = r.i
		default: // a multi-byte rune, or U+FFFD for an invalid byte
			rn, n := utf8.DecodeRune(r.b[i:])
			if rn == utf8.RuneError && n == 1 && plain {
				out, plain = append(out, r.b[start:i]...), false
			}
			if !plain {
				out = utf8.AppendRune(out, rn)
			}
			i += n
		}
	}
}

// plainByte marks the bytes a JSON string holds as themselves: printable
// ASCII other than '"' and '\\'.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// escape appends the escape sequence at the cursor, unescaped.
func (r *jsonReader) escape(out []byte) []byte {
	if r.i+1 >= len(r.b) {
		r.fail("unterminated string")
		return out
	}
	c := r.b[r.i+1]
	r.i += 2
	switch c {
	case '"', '\\', '/':
		return append(out, c)
	case 'b':
		return append(out, '\b')
	case 'f':
		return append(out, '\f')
	case 'n':
		return append(out, '\n')
	case 'r':
		return append(out, '\r')
	case 't':
		return append(out, '\t')
	case 'u':
		rn := hex4(r.b[r.i:])
		if rn < 0 {
			r.fail(`bad \u escape`)
			return out
		}
		r.i += 4
		if utf16.IsSurrogate(rn) {
			// A pair decodes to one rune; a lone half is U+FFFD and
			// whatever follows it is read on its own.
			if bytes.HasPrefix(r.b[r.i:], []byte(`\u`)) {
				if dec := utf16.DecodeRune(rn, hex4(r.b[r.i+2:])); dec != utf8.RuneError {
					r.i += 6
					return utf8.AppendRune(out, dec)
				}
			}
			rn = utf8.RuneError
		}
		return utf8.AppendRune(out, rn)
	}
	r.fail("bad escape \\%c", c)
	return out
}

// hex4 decodes the four hex digits b starts with, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	v, err := strconv.ParseUint(string(b[:4]), 16, 16)
	if err != nil {
		return -1
	}
	return rune(v)
}

// str reads a string into a fresh string.
func (r *jsonReader) str() string { return string(r.bytes()) }

// strs reads an array of strings; empty is nil.
func (r *jsonReader) strs() []string {
	var ss []string
	r.array(func(int) { ss = append(ss, r.str()) })
	return ss
}

// base64 reads a base64 string (encoding/json's []byte form) into fresh
// bytes; null is nil.
func (r *jsonReader) base64() []byte {
	if r.null() {
		return nil
	}
	b := r.bytes()
	out := make([]byte, base64.StdEncoding.DecodedLen(len(b)))
	n, err := base64.StdEncoding.Decode(out, b)
	if err != nil {
		r.fail("%v", err)
	}
	return out[:n]
}

// uint reads a non-negative integer that fits in max.
func (r *jsonReader) uint(max uint64) uint64 {
	r.peek()
	j := r.i
	var v uint64
	for ; j < len(r.b) && '0' <= r.b[j] && r.b[j] <= '9'; j++ {
		d := uint64(r.b[j] - '0')
		if v > (max-d)/10 {
			r.fail("number out of range")
			return 0
		}
		v = v*10 + d
	}
	if j == r.i {
		r.mismatch("an unsigned integer")
		return 0
	}
	r.i = j
	return v
}

func (r *jsonReader) uint64() uint64 { return r.uint(math.MaxUint64) }

// int reads an integer that fits in an int.
func (r *jsonReader) int() int { return int(r.int64(math.MaxInt)) }

func (r *jsonReader) int64(max uint64) int64 {
	if r.peek() == '-' {
		r.i++
		return -int64(r.uint(max + 1))
	}
	return int64(r.uint(max))
}

// time reads a time in either of appendTime's forms: Unix nanoseconds,
// or an RFC 3339 string (the only form appendRFC3339 writes).
func (r *jsonReader) time() time.Time {
	if r.peek() != '"' {
		return time.Unix(0, r.int64(math.MaxInt64)).UTC()
	}
	var t time.Time
	if b := r.bytes(); r.err == nil {
		if err := t.UnmarshalText(b); err != nil {
			r.fail("%v", err)
		}
	}
	return t
}

// raw copies the next value verbatim.
func (r *jsonReader) raw() []byte {
	start := r.skip()
	if r.err != nil {
		return nil
	}
	return bytes.Clone(r.b[start:r.i])
}

// skip moves past the next value and returns where it started. It
// tracks only strings and nesting; with validate set it then checks the
// value with json.Valid.
func (r *jsonReader) skip() int {
	r.peek()
	from, depth := r.i, 0
	for c := r.peek(); r.err == nil; c = r.peek() {
		switch {
		case r.i >= len(r.b):
			r.fail("unexpected end of JSON input")
		case c == '"':
			r.i = r.stringEnd(r.i + 1)
		case c == '{' || c == '[':
			depth++
			r.i++
		case c == '}' || c == ']':
			depth--
			r.i++
		case c == ',' || c == ':':
			if depth == 0 {
				r.mismatch("a value")
			}
			r.i++
		default: // a number or literal: up to the next delimiter
			for r.i < len(r.b) && strings.IndexByte(" \t\n\r,:{}[]\"", r.b[r.i]) < 0 {
				r.i++
			}
		}
		if depth < 0 {
			r.fail("unbalanced value")
		}
		if depth == 0 {
			break
		}
	}
	if r.validate && r.err == nil && !json.Valid(r.b[from:r.i]) {
		r.i = from
		r.fail("invalid JSON value")
	}
	return from
}

// stringEnd returns the offset just past the closing quote of the
// string whose content starts at i.
func (r *jsonReader) stringEnd(i int) int {
	for {
		k := bytes.IndexByte(r.b[i:], '"')
		if k < 0 {
			r.fail("unterminated string")
			return len(r.b)
		}
		i += k
		n := 0 // an odd run of backslashes escapes the quote
		for n < k && r.b[i-1-n] == '\\' {
			n++
		}
		i++
		if n%2 == 0 {
			return i
		}
	}
}
