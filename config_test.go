package sqlsheet

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// configLeaves lists every independently settable value of a Config as a
// dotted field path, descending into the Ablate tree.
func configLeaves(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Type.Kind() == reflect.Struct {
			out = append(out, configLeaves(f.Type, prefix+f.Name+".")...)
		} else {
			out = append(out, prefix+f.Name)
		}
	}
	return out
}

// TestConfigSurface pins the configuration surface. Config is what a server
// operator sets; every other switch is an ablation toggle, declared once in
// the layer that reads it and reachable only through Config.Ablate. Each
// independent value doubles the grid the byte-identity tests must cover, so
// adding one means editing this list — and saying in the same change which
// two callers need different values of it.
func TestConfigSurface(t *testing.T) {
	want := []string{
		// The serving surface.
		"Parallel",
		"Workers",
		"MemoryBudget",
		"SpillDir",
		"PlanCacheBudget",
		"PromoteIndependentDims",
		"EnableMVRewrite",
		// Ablation toggles: cache tiers (this package) …
		"Ablate.DisablePlanCache",
		"Ablate.DisableResultCache",
		// … executor (exec.Ablation) …
		"Ablate.Exec.MorselSize",
		"Ablate.Exec.DisableAsyncSpill",
		// … optimizer (plan.Ablation) …
		"Ablate.Plan.ForceJoin",
		"Ablate.Plan.Push",
		"Ablate.Plan.DisableSheetPrune",
		"Ablate.Plan.DisableSheetPush",
		"Ablate.Plan.DisableFilterPushdown",
		// … spreadsheet engine (core.Ablation).
		"Ablate.Engine.Buckets",
		"Ablate.Engine.DisableSingleScan",
		"Ablate.Engine.DisableRangeProbe",
		"Ablate.Engine.DisableVectorizedExec",
		"Ablate.Engine.DisableVectorizedRules",
		"Ablate.Engine.VecMinRows",
	}
	cfg := reflect.TypeOf(Config{})
	if got := configLeaves(cfg, ""); !slices.Equal(got, want) {
		t.Errorf("configuration surface changed:\n got %q\nwant %q", got, want)
	}
	if n := cfg.NumField(); n != 8 {
		t.Errorf("Config has %d fields, want the 7 serving fields and Ablate", n)
	}
}

// setLeaf makes the value at a dotted path non-zero.
func setLeaf(v reflect.Value, path []string) {
	for _, name := range path {
		v = v.FieldByName(name)
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("x")
	case reflect.Int, reflect.Int64:
		v.SetInt(3)
	case reflect.Uint8:
		v.SetUint(1)
	default:
		panic("setLeaf: unhandled kind " + v.Kind().String())
	}
}

// TestConfigFingerprintCoversEveryValue: cached plans and results are keyed
// by the configuration fingerprint, so every settable value — the nested
// ablation structs' included — must move it, each to a different place.
func TestConfigFingerprintCoversEveryValue(t *testing.T) {
	seen := map[uint64]string{configFingerprint(Config{}): "the zero Config"}
	for _, leaf := range configLeaves(reflect.TypeOf(Config{}), "") {
		var cfg Config
		setLeaf(reflect.ValueOf(&cfg).Elem(), strings.Split(leaf, "."))
		fp := configFingerprint(cfg)
		if other, dup := seen[fp]; dup {
			t.Errorf("setting %s leaves the fingerprint equal to that of %s", leaf, other)
		}
		seen[fp] = leaf
	}
}
