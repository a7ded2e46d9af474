package rowblock

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"scuba/internal/layout"
)

func TestSealStampsZoneMaps(t *testing.T) {
	rb := buildBlock(t, 100)
	zones := rb.ZoneMaps()
	if len(zones) != len(rb.Schema()) {
		t.Fatalf("zones = %d, schema = %d", len(zones), len(rb.Schema()))
	}

	tz := rb.ColumnZone(TimeColumn)
	if tz == nil || tz.Kind != ZoneInt {
		t.Fatalf("time zone = %+v", tz)
	}
	if tz.MinI != 1700000000 || tz.MaxI != 1700000099 {
		t.Errorf("time zone range [%d, %d]", tz.MinI, tz.MaxI)
	}

	lz := rb.ColumnZone("latency_ms")
	if lz == nil || lz.Kind != ZoneInt || lz.MinI != 10 || lz.MaxI != 59 {
		t.Errorf("latency zone = %+v", lz)
	}

	cz := rb.ColumnZone("cpu")
	if cz == nil || cz.Kind != ZoneFloat || cz.MinF != 0 || cz.MaxF != 49.5 {
		t.Errorf("cpu zone = %+v", cz)
	}

	sz := rb.ColumnZone("service")
	if sz == nil || sz.Kind != ZoneDict {
		t.Fatalf("service zone = %+v", sz)
	}
	for _, want := range []string{"svc-0", "svc-1", "svc-2"} {
		if !sz.MayContain(want) {
			t.Errorf("service zone excludes present value %q", want)
		}
	}
	if sz.MayContain("svc-7") && sz.MayContain("absent-value") && sz.MayContain("zzz") {
		t.Errorf("service zone admits every absent probe: filter is saturated or broken")
	}

	gz := rb.ColumnZone("tags")
	if gz == nil || gz.Kind != ZoneSetDict {
		t.Fatalf("tags zone = %+v", gz)
	}
	if !gz.MayContain("prod") || !gz.MayContain("tier0") || !gz.MayContain("tier1") {
		t.Errorf("tags zone excludes present members")
	}

	if rb.ColumnZone("no-such-column") != nil {
		t.Errorf("zone for absent column")
	}
}

func TestZoneMapNaNDisablesSummary(t *testing.T) {
	z := zoneOfFloats([]float64{1, nan(), 3})
	if z.Kind != ZoneNone {
		t.Errorf("NaN column zone = %+v", z)
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

func TestZoneMapRoundTrip(t *testing.T) {
	zones := []ZoneMap{
		{Kind: ZoneNone},
		{Kind: ZoneInt, MinI: -5, MaxI: 1 << 40},
		{Kind: ZoneFloat, MinF: -1.5, MaxF: 2.25},
		zoneOfDict(ZoneDict, []string{"a", "b", "c"}),
		zoneOfDict(ZoneSetDict, []string{"x", "y", "z"}),
	}
	var buf []byte
	for _, z := range zones {
		buf = appendZoneMap(buf, z)
	}
	pos := 0
	for i, want := range zones {
		got, n, err := parseZoneMap(buf[pos:])
		if err != nil {
			t.Fatalf("parse zone %d: %v", i, err)
		}
		pos += n
		if got != want {
			t.Errorf("zone %d: got %+v want %+v", i, got, want)
		}
	}
	if pos != len(buf) {
		t.Errorf("parsed %d of %d bytes", pos, len(buf))
	}
}

func TestZoneMapParseCorrupt(t *testing.T) {
	cases := [][]byte{
		{},
		{byte(ZoneInt)},              // truncated min/max
		{byte(ZoneDict), 1, 2},       // truncated bloom
		{99},                         // unknown kind
		{byte(ZoneSetDict), 0, 0, 0}, // truncated bloom
	}
	for i, b := range cases {
		if _, _, err := parseZoneMap(b); err == nil {
			t.Errorf("case %d: corrupt zone map accepted", i)
		}
	}
}

// TestImageV2RoundTripZones checks zone maps survive the image round trip.
func TestImageV2RoundTripZones(t *testing.T) {
	rb := buildBlock(t, 64)
	img := rb.AppendImage(nil)
	back, _, err := DecodeImage(img)
	if err != nil {
		t.Fatal(err)
	}
	want, got := rb.ZoneMaps(), back.ZoneMaps()
	if len(want) != len(got) {
		t.Fatalf("zones: got %d want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("zone %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestGoldenV1Image: an image written by the v1 code (before zone maps
// existed, magic "RBK1") is corrupt to this reader — no supported release
// writes one — and reads as ErrImageCorrupt, the class every image reader
// already degrades on, whichever pass decodes it.
func TestGoldenV1Image(t *testing.T) {
	img, err := os.ReadFile(filepath.Join("testdata", "image-v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if magic := string(img[:4]); magic != "RBK1" {
		t.Fatalf("fixture magic %q is not RBK1", magic)
	}
	for name, decode := range map[string]func([]byte) (*RowBlock, int, error){
		"DecodeImage": DecodeImage, "DecodeImageVerified": DecodeImageVerified,
	} {
		if rb, _, err := decode(img); !errors.Is(err, ErrImageCorrupt) {
			t.Errorf("%s of a v1 image: %v, %v; want ErrImageCorrupt", name, rb, err)
		}
	}
}

// TestZoneKindsCoverAllTypes pins that every column type seals a summary.
func TestZoneKindsCoverAllTypes(t *testing.T) {
	rb := buildBlock(t, 16)
	wantKinds := map[layout.ValueType]ZoneKind{
		layout.TypeTime:      ZoneInt,
		layout.TypeInt64:     ZoneInt,
		layout.TypeFloat64:   ZoneFloat,
		layout.TypeString:    ZoneDict,
		layout.TypeStringSet: ZoneSetDict,
	}
	for i, f := range rb.Schema() {
		if got := rb.ZoneMaps()[i].Kind; got != wantKinds[f.Type] {
			t.Errorf("column %q (%v): zone kind %d, want %d", f.Name, f.Type, got, wantKinds[f.Type])
		}
	}
}
