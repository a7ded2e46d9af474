package codec

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDictSerializeRoundTrip(t *testing.T) {
	cases := [][]string{
		{},
		{""},
		{"one"},
		{"a", "b", "c"},
		{"with\x00nul", "unicodeé", "long " + string(make([]byte, 300))},
	}
	for _, items := range cases {
		enc := EncodeDict(nil, items)
		got, err := DecodeDict(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", items, err)
		}
		if len(got) == 0 && len(items) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, items) {
			t.Errorf("round trip %q -> %q", items, got)
		}
	}
}

func TestDictSerializeProperty(t *testing.T) {
	f := func(items []string) bool {
		enc := EncodeDict(nil, items)
		got, err := DecodeDict(enc)
		if err != nil {
			return false
		}
		if len(items) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, items)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDictDecodeCorrupt(t *testing.T) {
	enc := EncodeDict(nil, []string{"hello", "world"})
	if _, err := DecodeDict(enc[:len(enc)-3]); err == nil {
		t.Error("truncated dictionary decoded without error")
	}
	if _, err := DecodeDict([]byte{byte(MethodRaw)}); err == nil {
		t.Error("wrong method byte decoded without error")
	}
	if _, err := DecodeDict(nil); err == nil {
		t.Error("empty input decoded without error")
	}
}

func TestDictLargeCardinality(t *testing.T) {
	items := make([]string, 10000)
	for i := range items {
		items[i] = fmt.Sprintf("entry-%d", i)
	}
	got, err := DecodeDict(EncodeDict(nil, items))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, items) {
		t.Error("large dictionary round trip mismatch")
	}
}
