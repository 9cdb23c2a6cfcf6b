package store

import (
	"bytes"
	"encoding"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// decoded is an entry's typed payload cell. An eager entry — one whose
// bytes were marshalled when it was written — starts with an empty cell
// or with the value its writer passed, and loses the value for good once
// it stops being its container's latest. A lazy entry, written to a
// database without a commit hook, starts with the value and no bytes:
// the cell then also holds the bytes once Entry.Payload produces them.
// The slot is atomic because Views read entries without locks while the
// writer retires them and readers produce bytes.
type decoded struct {
	v atomic.Pointer[held]
}

// held is one state of a decoded cell. States are immutable; a change
// swaps in a new one.
type held struct {
	// v is the typed value; invalid once an eager cell is retired, or a
	// retired lazy cell has its bytes.
	v reflect.Value
	// raw holds a lazy payload's bytes once produced.
	raw json.RawMessage
	// lazy marks a payload whose bytes are produced on demand from v;
	// ptr that its writer passed a pointer, so the bytes are marshalled
	// through one, exactly as the writer's payload would have been.
	lazy, ptr bool
	// retired marks a cell whose entry is no longer its container's
	// latest: an eager cell is never filled again, and a lazy one drops
	// its value as soon as it has its bytes.
	retired bool
}

// retired is the state of a retired eager cell.
var retired = &held{retired: true}

// newDecoded returns a cell holding v, or an empty cell for an invalid v.
func newDecoded(v reflect.Value) *decoded {
	d := new(decoded)
	if v.IsValid() {
		d.v.Store(&held{v: v})
	}
	return d
}

// load returns the held value, or nil for an empty, retired or missing
// cell.
func (d *decoded) load() *reflect.Value {
	if d == nil {
		return nil
	}
	if h := d.v.Load(); h != nil && h.v.IsValid() {
		return &h.v
	}
	return nil
}

// lazy reports whether the cell holds a lazy payload.
func (d *decoded) lazy() bool {
	if d == nil {
		return false
	}
	h := d.v.Load()
	return h != nil && h.lazy
}

// fill keeps a copy of v in an empty cell. A missing, held, lazy or
// retired cell is left alone.
func (d *decoded) fill(v reflect.Value) {
	if d != nil && d.v.Load() == nil {
		d.v.CompareAndSwap(nil, &held{v: structCopy(v)})
	}
}

// retire drops the held value and keeps the cell from being filled
// again. A lazy cell keeps its value until it has its bytes: the value
// is the payload's only form until then.
func (d *decoded) retire() {
	if d == nil {
		return
	}
	for {
		h := d.v.Load()
		if h == nil || !h.lazy {
			d.v.Store(retired)
			return
		}
		if h.retired {
			return
		}
		next := &held{raw: h.raw, lazy: true, retired: true}
		if h.raw == nil {
			next.v, next.ptr = h.v, h.ptr
		}
		if d.v.CompareAndSwap(h, next) {
			return
		}
	}
}

// bytes returns a lazy payload's bytes, marshalling them on first use,
// or nil for a cell that is not lazy. Concurrent first calls may both
// marshal; they produce the same bytes and one of them is kept.
func (d *decoded) bytes() json.RawMessage {
	if d == nil {
		return nil
	}
	var raw json.RawMessage
	for {
		h := d.v.Load()
		if h == nil || !h.lazy {
			return nil
		}
		if h.raw != nil {
			return h.raw
		}
		if raw == nil {
			x := h.v.Interface()
			if h.ptr {
				x = h.v.Addr().Interface()
			}
			var err error
			if raw, err = json.Marshal(x); err != nil {
				// marshalsPlainly admitted the value when it was
				// written, and the writer may not change it since.
				panic(fmt.Sprintf("store: lazy payload no longer marshals: %v", err))
			}
		}
		next := &held{raw: raw, lazy: true, retired: h.retired}
		if !h.retired {
			next.v, next.ptr = h.v, h.ptr
		}
		if d.v.CompareAndSwap(h, next) {
			return raw
		}
	}
}

// structCopy returns a shallow copy of the struct v.
func structCopy(v reflect.Value) reflect.Value {
	c := reflect.New(v.Type()).Elem()
	c.Set(v)
	return c
}

// marshalPayload returns payload as JSON. A non-empty json.RawMessage
// is taken as the JSON it already is, neither copied nor re-compacted:
// WAL replay hands the store the bytes it marshalled before, which the
// log's checksums guard.
func marshalPayload(payload any) ([]byte, error) {
	if raw, ok := payload.(json.RawMessage); ok && len(raw) > 0 {
		return raw, nil
	}
	return json.Marshal(payload)
}

// structOf returns the struct a payload is or points to, and whether it
// points to it; the invalid Value for anything else (maps,
// json.RawMessage, nil).
func structOf(payload any) (reflect.Value, bool) {
	v := reflect.ValueOf(payload)
	ptr := v.Kind() == reflect.Pointer && !v.IsNil()
	if ptr {
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return reflect.Value{}, false
	}
	return v, ptr
}

// encodeLocked turns a payload being written into an entry's bytes and
// decoded cell; latest tells whether the entry is its container's
// latest. Caller holds mu for writing, so the commit hook it reads is
// the one the write will be emitted to.
//
// A database with a commit hook marshals now: the hook needs the bytes.
// One without keeps a struct payload whose JSON is sure to marshal
// (marshalsPlainly) as a lazy cell and returns no bytes; Entry.Payload
// produces them on demand. Otherwise the bytes are marshalled now, and
// the latest entry keeps a shallow copy of a struct payload beside them
// — unless they hold the escape \ufffd, which the encoder writes for a
// string that is not valid UTF-8: the kept string would differ from the
// decoded one.
func (db *DB) encodeLocked(payload any, latest bool) (json.RawMessage, *decoded, error) {
	v, ptr := structOf(payload)
	if db.commitHook == nil && v.IsValid() && marshalsPlainly(v) {
		if ptr {
			v = structCopy(v) // the caller still owns *payload
		}
		d := new(decoded)
		d.v.Store(&held{v: v, lazy: true, ptr: ptr, retired: !latest})
		return nil, d, nil
	}
	b, err := marshalPayload(payload)
	if err != nil || !latest {
		return b, nil, err
	}
	if !v.IsValid() || bytes.Contains(b, []byte(`\ufffd`)) {
		return b, new(decoded), nil
	}
	if ptr {
		v = structCopy(v)
	}
	// A struct passed by value is already a private copy in the interface.
	return b, newDecoded(v), nil
}

// marshalsPlainly reports whether json.Marshal of the struct v is sure
// to succeed and to decode back to v, so its bytes may wait: v's type
// is plain (structPlan), no string in it is invalid UTF-8 (the encoder
// would write \ufffd), no float is NaN or infinite, and every time is a
// UTC time without a monotonic clock reading in years 0–9999 (another
// zone or a clock reading would not come back, and other years are
// refused).
func marshalsPlainly(v reflect.Value) bool {
	return planOf(v.Type()).plain && plainValue(v)
}

func plainValue(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.String:
		return utf8.ValidString(v.String())
	case reflect.Float32, reflect.Float64:
		f := v.Float()
		return !math.IsNaN(f) && !math.IsInf(f, 0)
	case reflect.Pointer:
		return v.IsNil() || plainValue(v.Elem())
	case reflect.Slice, reflect.Array:
		if k := v.Type().Elem().Kind(); k == reflect.Uint8 || !needsCheck(k) {
			return true
		}
		for i := 0; i < v.Len(); i++ {
			if !plainValue(v.Index(i)) {
				return false
			}
		}
	case reflect.Map:
		// Reused key and element holders: Key and Value would allocate
		// a copy of each string.
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		check := needsCheck(e.Kind())
		for it := v.MapRange(); it.Next(); {
			if k.SetIterKey(it); !utf8.ValidString(k.String()) {
				return false
			}
			if check {
				if e.SetIterValue(it); !plainValue(e) {
					return false
				}
			}
		}
	case reflect.Struct:
		if v.Type() == timeType {
			var t time.Time
			if v.CanAddr() {
				t = *v.Addr().Interface().(*time.Time)
			} else {
				t = v.Interface().(time.Time)
			}
			return t.Location() == time.UTC && t == t.Round(0) && t.Year() >= 0 && t.Year() <= 9999
		}
		for _, i := range planOf(v.Type()).check {
			if !plainValue(v.Field(i)) {
				return false
			}
		}
	}
	return true
}

// needsCheck reports whether a value of kind k can fail plainValue.
func needsCheck(k reflect.Kind) bool {
	switch k {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return false
	}
	return true
}

var (
	timeType          = reflect.TypeFor[time.Time]()
	jsonMarshalerType = reflect.TypeFor[json.Marshaler]()
	textMarshalerType = reflect.TypeFor[encoding.TextMarshaler]()
	plans             sync.Map // struct reflect.Type → *structPlan
)

// structPlan is what marshalsPlainly knows of a struct type.
type structPlan struct {
	// plain reports whether json.Marshal of the type is sure to succeed
	// and to write only what plainValue checks, whatever the value: it
	// is built from booleans, numbers, strings, time.Time, pointers,
	// slices, arrays, string-keyed maps and structs without embedded
	// fields, none of them recursive or with a JSON or text marshaller
	// of its own.
	plain bool
	// check lists the exported fields plainValue looks at: those that
	// are not booleans or integers.
	check []int
}

// planOf returns the plan of the struct type t, computed once.
func planOf(t reflect.Type) *structPlan {
	if p, ok := plans.Load(t); ok {
		return p.(*structPlan)
	}
	p := &structPlan{plain: plainTypeIn(t, map[reflect.Type]bool{})}
	for i := 0; p.plain && i < t.NumField(); i++ {
		if f := t.Field(i); f.IsExported() && needsCheck(f.Type.Kind()) {
			p.check = append(p.check, i)
		}
	}
	plans.Store(t, p)
	return p
}

func plainTypeIn(t reflect.Type, visiting map[reflect.Type]bool) bool {
	if t == timeType {
		return true
	}
	if visiting[t] || t.Implements(jsonMarshalerType) || t.Implements(textMarshalerType) ||
		reflect.PointerTo(t).Implements(jsonMarshalerType) || reflect.PointerTo(t).Implements(textMarshalerType) {
		return false
	}
	visiting[t] = true
	defer delete(visiting, t)
	switch t.Kind() {
	case reflect.String, reflect.Float32, reflect.Float64:
		return true
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return plainTypeIn(t.Elem(), visiting)
	case reflect.Map:
		return t.Key().Kind() == reflect.String && plainTypeIn(t.Key(), visiting) && plainTypeIn(t.Elem(), visiting)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if f.Anonymous || f.IsExported() && !plainTypeIn(f.Type, visiting) {
				return false
			}
		}
		return true
	}
	return !needsCheck(t.Kind())
}
