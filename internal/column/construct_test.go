package column

import (
	"reflect"
	"testing"

	"scuba/internal/layout"
)

func TestNewInt64(t *testing.T) {
	c := NewInt64(layout.TypeTime, []int64{1, 2, 3})
	if c.Type() != layout.TypeTime || c.Len() != 3 {
		t.Errorf("type/len = %v/%d", c.Type(), c.Len())
	}
	defer func() {
		if recover() == nil {
			t.Error("NewInt64 with string type did not panic")
		}
	}()
	NewInt64(layout.TypeString, nil)
}

func TestNewStringFromValues(t *testing.T) {
	c := NewStringFromValues([]string{"b", "a", "b"})
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.Value(0) != "b" || c.Value(1) != "a" || c.Value(2) != "b" {
		t.Error("values wrong")
	}
	if len(c.Dict) != 2 {
		t.Errorf("dict = %v", c.Dict)
	}
	if c.Type() != layout.TypeString {
		t.Errorf("type = %v", c.Type())
	}
}

func TestNewStringSetFromValues(t *testing.T) {
	c := NewStringSetFromValues([][]string{{"x", "y"}, nil, {"y"}})
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	vals, err := c.Values()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vals[0], []string{"x", "y"}) {
		t.Errorf("row 0 = %v", vals[0])
	}
	if len(vals[1]) != 0 {
		t.Errorf("row 1 = %v", vals[1])
	}
	if got, err := c.SelectContains("y", []uint32{0, 1, 2}, nil); err != nil || !reflect.DeepEqual(got, []uint32{0, 2}) {
		t.Errorf("rows containing y = %v, %v", got, err)
	}
	if c.Type() != layout.TypeStringSet {
		t.Errorf("type = %v", c.Type())
	}
	// Len methods on the typed columns (interface completeness).
	if (&Float64Column{Values: []float64{1}}).Len() != 1 {
		t.Error("Float64Column.Len wrong")
	}
}
