package column

import (
	"encoding/binary"
	"fmt"

	"scuba/internal/codec"
	"scuba/internal/layout"
)

// NewInt64 builds a decoded integer column directly from values (used by
// unsealed-row snapshots, which never pass through the encoded form).
func NewInt64(vt layout.ValueType, values []int64) *Int64Column {
	if vt != layout.TypeInt64 && vt != layout.TypeTime {
		panic(fmt.Sprintf("column: NewInt64 with type %v", vt))
	}
	return &Int64Column{vt: vt, Values: values}
}

// NewStringFromValues builds a decoded string column from raw values.
func NewStringFromValues(values []string) *StringColumn {
	d := codec.NewDict()
	ids := make([]uint32, len(values))
	for i, s := range values {
		ids[i] = d.ID(s)
	}
	return &StringColumn{Dict: d.Items(), IDs: ids}
}

// NewStringSetFromValues builds a string-set column from raw values, its
// rows in the same encoding a sealed block's data section uses.
func NewStringSetFromValues(values [][]string) *StringSetColumn {
	d := codec.NewDict()
	var data []byte
	for _, set := range values {
		data = binary.AppendUvarint(data, uint64(len(set)))
		for _, s := range set {
			data = binary.AppendUvarint(data, uint64(d.ID(s)))
		}
	}
	return &StringSetColumn{Dict: d.Items(), n: len(values), data: data, raw: len(data)}
}
