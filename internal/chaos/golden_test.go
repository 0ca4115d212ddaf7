package chaos

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// TestSoakGolden pins every soak's Result for the pinned seeds against
// a rendering recorded in testdata/, one "path = value" line per leaf
// field.  The soak tests prove run-to-run replay; this proves replay
// across code changes: a refactor that claims unchanged behaviour must
// leave every file as it is.  An intended change to a soak's timeline
// regenerates them with -update and says why in the commit.
func TestSoakGolden(t *testing.T) {
	soaks := []struct {
		name string
		run  func(seed int64) any
	}{
		{"chaos", func(seed int64) any { return Run(Default(seed)) }},
		{"hostile", func(seed int64) any { return RunHostile(DefaultHostile(seed)) }},
		{"reflex", func(seed int64) any { return RunReflexSoak(DefaultReflexSoak(seed)) }},
	}
	for _, s := range soaks {
		for _, seed := range []int64{1, 7, 42} {
			t.Run(fmt.Sprintf("%s/seed=%d", s.name, seed), func(t *testing.T) {
				var b strings.Builder
				renderValue(t, &b, "Result", reflect.ValueOf(s.run(seed)))
				got := b.String()
				path := filepath.Join("testdata", fmt.Sprintf("%s-seed%d.golden", s.name, seed))
				if *update {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if got == string(want) {
					return
				}
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := range max(len(gl), len(wl)) {
					g, w := "<missing>", "<missing>"
					if i < len(gl) {
						g = gl[i]
					}
					if i < len(wl) {
						w = wl[i]
					}
					if g != w {
						t.Fatalf("%s line %d:\n got  %s\n want %s", path, i+1, g, w)
					}
				}
			})
		}
	}
}

// renderValue writes v as one "path = value" line per leaf, walking
// structs, slices, arrays and pointers, so the text is free of
// addresses and stable across runs.  Numbers print as raw values, not
// through String methods that round (netsim.Time prints microseconds);
// floats print in their shortest exact form; a nil slice and an empty
// one render differently, as reflect.DeepEqual tells them apart.  Kinds
// no Result holds (maps, interfaces, funcs) fail the test rather than
// render unstably.
func renderValue(t *testing.T, b *strings.Builder, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			renderValue(t, b, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			fmt.Fprintf(b, "%s = nil\n", path)
			return
		}
		fmt.Fprintf(b, "%s.len = %d\n", path, v.Len())
		for i := range v.Len() {
			renderValue(t, b, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			fmt.Fprintf(b, "%s = nil\n", path)
			return
		}
		renderValue(t, b, path, v.Elem())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(b, "%s = %d\n", path, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		fmt.Fprintf(b, "%s = %d\n", path, v.Uint())
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(b, "%s = %s\n", path, strconv.FormatFloat(v.Float(), 'g', -1, 64))
	case reflect.String:
		fmt.Fprintf(b, "%s = %q\n", path, v.String())
	case reflect.Bool:
		fmt.Fprintf(b, "%s = %t\n", path, v.Bool())
	default:
		t.Fatalf("%s: cannot render a %s", path, v.Kind())
	}
}
