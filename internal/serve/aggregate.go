package serve

import (
	"fmt"
	"reflect"
	"strings"
	"sync"

	"zipserv/internal/kvcache"
)

// aggOp folds one Stats field across replicas by the rule its agg tag
// declares. For a mean, weight is the field each replica's value is
// weighted by.
type aggOp struct {
	rule          string
	field, weight int
}

// statsOps is aggregateStats's op table, one op per Stats field.
var statsOps = sync.OnceValue(func() []aggOp {
	ops, err := aggOps(reflect.TypeFor[Stats]())
	if err != nil {
		panic(err) // a mistagged Stats field
	}
	return ops
})

// aggOps reads a struct's agg tags into ops. The rules, each folding
// from the zero value:
//
//   - sum, max, or;
//   - minpos: the minimum over non-zero values;
//   - same: the replicas' common value, "mixed" when they differ;
//   - mean:<key>: the mean weighted by the int field with JSON key
//     <key>, or over the replicas where the bool field <key> is true;
//   - merge: kvcache.MergePrefixSummaries;
//   - derived: recomputed by derive; replica: never aggregated.
//
// A missing or unknown rule, a weight on any rule but mean, or a mean
// weight that names no int or bool field is an error.
func aggOps(t reflect.Type) ([]aggOp, error) {
	byKey := make(map[string]int, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		key, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		byKey[key] = i
	}
	ops := make([]aggOp, t.NumField())
	for i := range ops {
		f := t.Field(i)
		tag := f.Tag.Get("agg")
		rule, weight, _ := strings.Cut(tag, ":")
		ops[i] = aggOp{rule: rule, field: i}
		switch rule {
		case "sum", "max", "or", "minpos", "same", "merge", "derived", "replica":
			if weight == "" {
				continue
			}
		case "mean":
			if w, ok := byKey[weight]; ok {
				switch t.Field(w).Type.Kind() {
				case reflect.Int, reflect.Int64, reflect.Bool:
					ops[i].weight = w
					continue
				}
			}
		}
		return nil, fmt.Errorf("serve: %s.%s: bad agg tag %q", t.Name(), f.Name, tag)
	}
	return ops, nil
}

// aggregateStats folds per-replica snapshots into one fleet view. Safe
// on an empty slice (all-zero aggregate, no NaNs): a router may be
// asked for stats while its replica set is still being assembled.
func aggregateStats(replicas []Stats) Stats {
	var agg Stats
	out, in := reflect.ValueOf(&agg).Elem(), reflect.ValueOf(replicas)
	for _, op := range statsOps() {
		dst := out.Field(op.field)
		var (
			num  float64 // mean: Σ value × weight
			wsum int64   // mean: Σ weight
			sums []*kvcache.PrefixSummary
		)
		for i := range replicas {
			v := in.Index(i).Field(op.field)
			switch op.rule {
			case "sum":
				if v.CanInt() {
					dst.SetInt(dst.Int() + v.Int())
				} else {
					dst.SetFloat(dst.Float() + v.Float())
				}
			case "max":
				if v.CanInt() {
					dst.SetInt(max(dst.Int(), v.Int()))
				} else if x := v.Float(); x > dst.Float() {
					dst.SetFloat(x)
				}
			case "or":
				dst.SetBool(dst.Bool() || v.Bool())
			case "minpos":
				if x := v.Int(); x > 0 && (dst.Int() == 0 || x < dst.Int()) {
					dst.SetInt(x)
				}
			case "same":
				if i > 0 && v.String() != dst.String() {
					dst.SetString("mixed")
				} else {
					dst.SetString(v.String())
				}
			case "mean":
				if w := in.Index(i).Field(op.weight); w.CanInt() {
					num += v.Float() * float64(w.Int())
					wsum += w.Int()
				} else if w.Bool() {
					num += v.Float()
					wsum++
				}
			case "merge":
				sums = append(sums, v.Interface().(*kvcache.PrefixSummary))
			}
		}
		switch {
		case op.rule == "mean" && wsum > 0:
			dst.SetFloat(num / float64(wsum))
		case op.rule == "merge":
			dst.Set(reflect.ValueOf(kvcache.MergePrefixSummaries(sums)))
		}
	}
	agg.derive()
	return agg
}

// derive computes the keys a snapshot rebuilds from its own fields
// instead of folding: the virtual-time rates, and the 1.0 ratio of a
// compressed cache with nothing frozen.
func (st *Stats) derive() {
	if st.SimSeconds > 0 {
		st.Goodput = float64(st.Completed) / st.SimSeconds
		st.Throughput = float64(st.OutputTokens) / st.SimSeconds
	}
	if st.CompressedCacheEnabled && st.CompressedKVBytes <= 0 {
		st.KVCompressionRatio = 1.0
	}
}
