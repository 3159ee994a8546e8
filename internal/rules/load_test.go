package rules

import (
	"errors"
	"maps"
	"reflect"
	"testing"
)

// A bound set carries its parameters and vet's findings under them; Bind
// leaves its input unbound and keeps its own copy of the parameters.
func TestBindCarriesParamsAndFindings(t *testing.T) {
	rs, err := Parse("ArrayList : maxSize < 2 && maxSize > Y -> LinkedHashSet")
	if err != nil {
		t.Fatal(err)
	}
	params := Params{"Y": 32}
	b, err := Bind(rs, params)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Params() != nil || rs.Diagnostics() != nil {
		t.Error("Bind bound its input")
	}
	want := vet(rs, params)
	if len(want) != 1 || !reflect.DeepEqual(b.Diagnostics(), want) {
		t.Errorf("Diagnostics = %v, want vet's %v", b.Diagnostics(), want)
	}
	params["Y"] = 0
	if b.Params()["Y"] != 32 {
		t.Error("the bound set shares the caller's parameter map")
	}
	var checkErr *CheckError
	if _, err := Bind(rs, Params{}); !errors.As(err, &checkErr) {
		t.Errorf("binding without Y: err = %v, want a *CheckError", err)
	}
}

// Choose binds a shipped set to the requested parameters, and returns
// its cached binding under the defaults.
func TestChooseBindsShippedSets(t *testing.T) {
	rs, _, err := Choose("", true, false, DefaultParams)
	if err != nil || rs.Diagnostics() != nil || !maps.Equal(rs.Params(), DefaultParams) {
		t.Fatalf("builtin under the defaults: err %v, diagnostics %v, params %v", err, rs.Diagnostics(), rs.Params())
	}
	x0 := maps.Clone(DefaultParams)
	x0["X"] = 0
	for _, extended := range []bool{false, true} {
		rs, _, err := Choose("", !extended, extended, x0)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Params()["X"] != 0 || len(rs.Diagnostics()) != 2 {
			t.Errorf("extended=%v under X=0: params %v, diagnostics %v; want X=0 and rule 3's two findings",
				extended, rs.Params(), rs.Diagnostics())
		}
	}
	if Builtin().Diagnostics() != nil || Extended().Diagnostics() != nil {
		t.Error("rebinding changed the shipped sets' own binding")
	}
}
