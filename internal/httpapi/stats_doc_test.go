package httpapi

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"zipserv/internal/kvcache"
	"zipserv/internal/serve"
)

// statsJSONKeys collects the JSON keys a struct type serialises to,
// recursing into nested structs (by value or pointer) so the digest's
// sub-object keys count too.
func statsJSONKeys(t *testing.T, typ reflect.Type, into map[string]bool) {
	t.Helper()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		tag := strings.Split(f.Tag.Get("json"), ",")[0]
		if tag == "-" {
			continue
		}
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if f.Anonymous && tag == "" {
			statsJSONKeys(t, ft, into) // embedded: keys inline
			continue
		}
		if tag == "" {
			t.Fatalf("stats field %s.%s has no json tag", typ.Name(), f.Name)
		}
		into[tag] = true
		if ft.Kind() == reflect.Struct && ft != reflect.TypeOf(serve.Stats{}) {
			statsJSONKeys(t, ft, into)
		}
	}
}

// docKeyRow matches a stats-reference table row and captures the key
// it documents and its aggregation column.
var docKeyRow = regexp.MustCompile("^\\| `([a-z0-9_]+)` \\| [^|]* \\| ([^|]*) \\|")

// TestStatsReferenceDocumentsEveryKey fails when a key served by
// /v1/stats — the flat serve.Stats surface, the routed extras, or the
// nested prefix-summary digest — is missing from
// docs/stats-reference.md, when a table row there documents a key
// none of them serves, and when a serve.Stats row's aggregation column
// does not start with the rule the field's agg tag declares. Adding a
// stats field without documenting its unit and fleet aggregation rule
// is a doc regression, and so is a row left behind by a deleted one or
// a rule the code no longer folds by; all are caught here.
func TestStatsReferenceDocumentsEveryKey(t *testing.T) {
	keys := make(map[string]bool)
	statsJSONKeys(t, reflect.TypeOf(serve.Stats{}), keys)
	rules := make(map[string]string)
	for _, f := range reflect.VisibleFields(reflect.TypeOf(serve.Stats{})) {
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		rules[key] = f.Tag.Get("agg")
	}
	statsJSONKeys(t, reflect.TypeOf(RoutedStats{}), keys)
	statsJSONKeys(t, reflect.TypeOf(kvcache.PrefixSummary{}), keys)

	doc, err := os.ReadFile("../../docs/stats-reference.md")
	if err != nil {
		t.Fatalf("stats reference missing: %v", err)
	}
	text := string(doc)
	var missing []string
	for key := range keys {
		if !strings.Contains(text, "`"+key+"`") {
			missing = append(missing, key)
		}
	}
	if len(missing) > 0 {
		t.Errorf("docs/stats-reference.md is missing %d stats key(s): %s",
			len(missing), strings.Join(missing, ", "))
	}
	rows := 0
	var unserved []string
	for _, line := range strings.Split(text, "\n") {
		if m := docKeyRow.FindStringSubmatch(line); m != nil {
			rows++
			if !keys[m[1]] {
				unserved = append(unserved, m[1])
			}
			if rule, ok := rules[m[1]]; ok && !strings.HasPrefix(m[2], "`"+rule+"`") {
				t.Errorf("docs/stats-reference.md: `%s` aggregation %q does not start with its agg rule `%s`", m[1], m[2], rule)
			}
			delete(rules, m[1])
		}
	}
	if rows == 0 {
		t.Fatal("docs/stats-reference.md: no documented key rows found")
	}
	if len(unserved) > 0 {
		t.Errorf("docs/stats-reference.md documents %d key(s) no stats struct serves: %s",
			len(unserved), strings.Join(unserved, ", "))
	}
	for key := range rules {
		t.Errorf("docs/stats-reference.md has no table row stating the rule of `%s`", key)
	}
}
