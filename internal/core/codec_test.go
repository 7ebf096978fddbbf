package core

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"
)

// TestStateHashCoverage sets each leaf field of each agent layout in
// turn on a zero state — recursing into the junta, clock, leader and
// backup states — to 1, to all ones and to its top bit alone, and
// requires the interner hash to change, and every such state to hash
// apart from the others, so two fields packed onto the same bits fail
// too. A field added to an agent struct and its codec but not to its
// hash fails here instead of silently lengthening the interner's
// probes.
func TestStateHashCoverage(t *testing.T) {
	t.Run("approximate", func(t *testing.T) { checkHashCoverage(t, hashApprox) })
	t.Run("exact", func(t *testing.T) { checkHashCoverage(t, hashExact) })
	t.Run("stable-approximate", func(t *testing.T) { checkHashCoverage(t, hashStableApprox) })
	t.Run("stable-exact", func(t *testing.T) { checkHashCoverage(t, hashStableExact) })
}

func checkHashCoverage[S any](t *testing.T, hash func(S) uint64) {
	var zero S
	h0 := hash(zero)
	var leaves [][]int
	var walk func(typ reflect.Type, path []int)
	walk = func(typ reflect.Type, path []int) {
		if typ.Kind() != reflect.Struct {
			leaves = append(leaves, append([]int(nil), path...))
			return
		}
		for i := 0; i < typ.NumField(); i++ {
			walk(typ.Field(i).Type, append(path, i))
		}
	}
	walk(reflect.TypeOf(zero), nil)
	seen := map[uint64]string{h0: "the zero state"}
	for _, path := range leaves {
		name := reflect.TypeOf(zero).FieldByIndex(path).Name
		var vals []func(reflect.Value)
		switch f := reflect.ValueOf(&zero).Elem().FieldByIndex(path); f.Kind() {
		case reflect.Bool:
			vals = append(vals, func(v reflect.Value) { v.SetBool(true) })
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			top := uint64(1) << (f.Type().Bits() - 1)
			for _, u := range []uint64{1, top, top | (top - 1)} {
				vals = append(vals, func(v reflect.Value) { v.SetUint(u) })
			}
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			for _, x := range []int64{1, -1, -1 << (f.Type().Bits() - 1)} {
				vals = append(vals, func(v reflect.Value) { v.SetInt(x) })
			}
		default:
			t.Fatalf("%T field %s has kind %v, which this test cannot set", zero, name, f.Kind())
		}
		for k, set := range vals {
			var s S
			f := reflect.ValueOf(&s).Elem().FieldByIndex(path)
			set(reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem())
			what := fmt.Sprintf("field %s (path %v) at test value %d", name, path, k)
			if prev, dup := seen[hash(s)]; dup {
				t.Errorf("%T: %s hashes like %s", zero, what, prev)
			}
			seen[hash(s)] = what
		}
	}
	if len(leaves) < 10 {
		t.Fatalf("%T: found only %d leaf fields", zero, len(leaves))
	}
}
