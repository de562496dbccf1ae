package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Fatal("Null() must be NULL")
	}
	if got := Int(42).Int64(); got != 42 {
		t.Fatalf("Int(42).Int64() = %d", got)
	}
	if got := Str("alice").Text(); got != "alice" {
		t.Fatalf("Str(alice).Text() = %q", got)
	}
	if Int(1).IsNull() || Str("").IsNull() {
		t.Fatal("non-null values reported as NULL")
	}
	// Cross-kind accessors return zero values.
	if Str("x").Int64() != 0 || Int(7).Text() != "" {
		t.Fatal("cross-kind accessors must return zero values")
	}
}

func TestValueComparable(t *testing.T) {
	m := map[Value]int{}
	m[Int(1)] = 1
	m[Str("1")] = 2
	m[Null()] = 3
	if len(m) != 3 {
		t.Fatalf("expected 3 distinct keys, got %d", len(m))
	}
	if m[Int(1)] != 1 || m[Str("1")] != 2 || m[Null()] != 3 {
		t.Fatal("map lookups by Value failed")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{Int(-7), "-7"},
		{Str("bob"), `"bob"`},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestValueLessTotalOrder(t *testing.T) {
	vals := []Value{Str("b"), Int(10), Null(), Str("a"), Int(-3), Int(10)}
	sort.Slice(vals, func(i, j int) bool { return vals[i].Less(vals[j]) })
	want := []Value{Null(), Int(-3), Int(10), Int(10), Str("a"), Str("b")}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("sorted[%d] = %v, want %v", i, vals[i], want[i])
		}
	}
}

func TestValueLessProperties(t *testing.T) {
	// Irreflexivity and asymmetry over random int/string values.
	f := func(a, b int64, s1, s2 string, pick uint8) bool {
		var x, y Value
		switch pick % 3 {
		case 0:
			x, y = Int(a), Int(b)
		case 1:
			x, y = Str(s1), Str(s2)
		default:
			x, y = Int(a), Str(s1)
		}
		if x.Less(x) || y.Less(y) {
			return false
		}
		if x.Less(y) && y.Less(x) {
			return false
		}
		// Trichotomy: exactly one of <, >, == holds.
		n := 0
		if x.Less(y) {
			n++
		}
		if y.Less(x) {
			n++
		}
		if x == y {
			n++
		}
		return n == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRecordCloneIsDeep(t *testing.T) {
	r := Record{Int(1), Str("x")}
	c := r.Clone()
	c[0] = Int(99)
	if r[0] != Int(1) {
		t.Fatal("Clone must not alias the original")
	}
	if !r.Equal(Record{Int(1), Str("x")}) {
		t.Fatal("original mutated")
	}
	if Record(nil).Clone() != nil {
		t.Fatal("nil record clones to nil")
	}
}

func TestRecordEqual(t *testing.T) {
	a := Record{Int(1), Str("x")}
	if !a.Equal(Record{Int(1), Str("x")}) {
		t.Fatal("identical records must be equal")
	}
	if a.Equal(Record{Int(1)}) {
		t.Fatal("different arity must not be equal")
	}
	if a.Equal(Record{Int(2), Str("x")}) {
		t.Fatal("different values must not be equal")
	}
}

func TestRecordString(t *testing.T) {
	got := Record{Int(3), Str("n"), Null()}.String()
	want := `(3, "n", NULL)`
	if got != want {
		t.Fatalf("Record.String() = %q, want %q", got, want)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindNull: "null", KindInt: "int", KindString: "string", Kind(9): "kind(9)"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func testSchema() *Schema {
	return &Schema{
		Name: "Account",
		Columns: []Column{
			{Name: "Name", Kind: KindString, NotNull: true},
			{Name: "CustomerID", Kind: KindInt, NotNull: true},
		},
		PK:     0,
		Unique: []int{1},
	}
}

func TestSchemaValidate(t *testing.T) {
	if err := testSchema().Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	bad := []*Schema{
		{Name: "", Columns: []Column{{Name: "a", Kind: KindInt}}},
		{Name: "t"},
		{Name: "t", Columns: []Column{{Name: "a", Kind: KindInt}}, PK: 5},
		{Name: "t", Columns: []Column{{Name: "a", Kind: KindInt}, {Name: "a", Kind: KindInt}}},
		{Name: "t", Columns: []Column{{Name: "", Kind: KindInt}}},
		{Name: "t", Columns: []Column{{Name: "a", Kind: KindInt}}, Unique: []int{3}},
		{Name: "t", Columns: []Column{{Name: "a", Kind: KindInt}}, Unique: []int{0}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schema %d accepted", i)
		}
	}
}

func TestSchemaCheckRecord(t *testing.T) {
	s := testSchema()
	if err := s.CheckRecord(Record{Str("alice"), Int(1)}); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	cases := []Record{
		{Str("alice")},                // wrong arity
		{Str("alice"), Str("notint")}, // wrong kind
		{Null(), Int(1)},              // null PK
		{Str("alice"), Null()},        // null NotNull column
		{Int(5), Int(1)},              // wrong PK kind
	}
	for i, r := range cases {
		if err := s.CheckRecord(r); err == nil {
			t.Errorf("bad record %d accepted: %v", i, r)
		}
	}
}

func TestSchemaColAndKey(t *testing.T) {
	s := testSchema()
	if s.Col("CustomerID") != 1 || s.Col("Name") != 0 {
		t.Fatal("Col lookup failed")
	}
	if s.Col("missing") != -1 {
		t.Fatal("missing column must return -1")
	}
	if got := s.Key(Record{Str("alice"), Int(1)}); got != Str("alice") {
		t.Fatalf("Key = %v", got)
	}
}

func TestErrorClassification(t *testing.T) {
	cases := []struct {
		err  error
		want AbortReason
		retr bool
	}{
		{nil, AbortNone, false},
		{ErrSerialization, AbortSerialization, true},
		{fmt.Errorf("wrapped: %w", ErrSerialization), AbortSerialization, true},
		{ErrDeadlock, AbortDeadlock, true},
		{fmt.Errorf("wrap: %w", ErrDeadlock), AbortDeadlock, true},
		{ErrRollback, AbortApplication, false},
		{errors.New("disk on fire"), AbortOther, false},
		{ErrNotFound, AbortOther, false},
	}
	for _, c := range cases {
		if got := ClassifyAbort(c.err); got != c.want {
			t.Errorf("ClassifyAbort(%v) = %v, want %v", c.err, got, c.want)
		}
		if got := IsRetriable(c.err); got != c.retr {
			t.Errorf("IsRetriable(%v) = %v, want %v", c.err, got, c.retr)
		}
	}
}

func TestAbortReasonString(t *testing.T) {
	for r, want := range map[AbortReason]string{
		AbortNone: "none", AbortSerialization: "serialization",
		AbortDeadlock: "deadlock", AbortApplication: "application",
		AbortOther: "other", AbortReason(99): "abort(99)",
	} {
		if r.String() != want {
			t.Errorf("AbortReason(%d).String() = %q, want %q", r, r.String(), want)
		}
	}
}

func TestModeAndPlatformStrings(t *testing.T) {
	if SnapshotFUW.String() != "si-fuw" || Strict2PL.String() != "2pl" || SerializableSI.String() != "ssi" {
		t.Fatal("CCMode names changed")
	}
	if CCMode(42).String() != "ccmode(42)" {
		t.Fatal("unknown CCMode formatting")
	}
	if PlatformPostgres.String() != "postgres" || PlatformCommercial.String() != "commercial" {
		t.Fatal("Platform names changed")
	}
	if Platform(9).String() != "platform(9)" {
		t.Fatal("unknown Platform formatting")
	}
}

func TestParseProfile(t *testing.T) {
	for _, c := range []struct {
		platform, mode string
		p              Platform
		m              CCMode
	}{
		{"postgres", "si", PlatformPostgres, SnapshotFUW},
		{"commercial", "2pl", PlatformCommercial, Strict2PL},
		{"postgres", "ssi", PlatformPostgres, SerializableSI},
	} {
		p, m, err := ParseProfile(c.platform, c.mode)
		if err != nil || p != c.p || m != c.m {
			t.Errorf("ParseProfile(%q, %q) = %v, %v, %v", c.platform, c.mode, p, m, err)
		}
	}
	for _, bad := range [][2]string{{"bogus", "si"}, {"postgres", "bogus"}, {"", ""}, {"Postgres", "si"}} {
		_, _, err := ParseProfile(bad[0], bad[1])
		if err == nil {
			t.Errorf("ParseProfile(%q, %q) accepted", bad[0], bad[1])
		} else if bad[0] == "bogus" || bad[1] == "bogus" {
			if !strings.Contains(err.Error(), `"bogus"`) {
				t.Errorf("error does not quote the unknown name: %v", err)
			}
		}
	}
}
