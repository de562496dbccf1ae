package smallbank

import (
	"errors"
	"testing"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/sdg"
)

// testDB loads a small bank for semantics tests: 10 customers with
// deterministic balances (savings 1000, checking 500 by narrowing the
// random ranges to a point).
func testDB(t *testing.T, mode core.CCMode, platform core.Platform) *engine.DB {
	t.Helper()
	db := engine.Open(engine.Config{Mode: mode, Platform: platform})
	t.Cleanup(db.Close)
	if err := CreateSchema(db); err != nil {
		t.Fatal(err)
	}
	_, err := Load(db, LoadConfig{
		Customers: 10, Seed: 1,
		MinSaving: 1000, MaxSaving: 1000,
		MinChecking: 500, MaxChecking: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func balanceOf(t *testing.T, db *engine.DB, cust int) (sav, chk int64) {
	t.Helper()
	tx := db.Begin()
	defer tx.Abort()
	s, err := tx.Get(TableSaving, core.Int(int64(cust)))
	if err != nil {
		t.Fatal(err)
	}
	c, err := tx.Get(TableChecking, core.Int(int64(cust)))
	if err != nil {
		t.Fatal(err)
	}
	return s[1].Int64(), c[1].Int64()
}

func TestLoadPopulatesTables(t *testing.T) {
	db := testDB(t, core.SnapshotFUW, core.PlatformPostgres)
	total, err := TotalMoney(db)
	if err != nil {
		t.Fatal(err)
	}
	if total != 10*(1000+500) {
		t.Fatalf("total = %d", total)
	}
	// Conflict table: one row per customer plus the fixed row.
	n := 0
	if err := db.ScanLatest(TableConflict, func(core.Value, core.Record) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 11 {
		t.Fatalf("conflict rows = %d, want 11", n)
	}
	// Account lookup by name works.
	tx := db.Begin()
	rec, err := tx.Get(TableAccount, core.Str(CustomerName(3)))
	if err != nil {
		t.Fatal(err)
	}
	if rec[1].Int64() != 3 {
		t.Fatalf("customer id = %d", rec[1].Int64())
	}
	tx.Abort()
}

func TestBalanceTransaction(t *testing.T) {
	db := testDB(t, core.SnapshotFUW, core.PlatformPostgres)
	tx := db.Begin()
	if err := RunIn(tx, StrategySI, Balance, Params{N1: CustomerName(0)}); err != nil {
		t.Fatal(err)
	}
	if tx.Stmts() != 3 {
		t.Fatalf("Balance ran %d statements, want the lookup and two reads", tx.Stmts())
	}
	if !tx.ReadOnly() {
		t.Fatal("plain Balance must be read-only")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Unknown customer rolls back as an application error.
	tx2 := db.Begin()
	if err := RunIn(tx2, StrategySI, Balance, Params{N1: "nobody"}); !errors.Is(err, core.ErrRollback) {
		t.Fatalf("unknown name: %v", err)
	}
	tx2.Abort()
}

func TestBalanceStopsBeingReadOnlyUnderBWStrategies(t *testing.T) {
	cases := []*Strategy{StrategyMaterializeBW, StrategyPromoteBWUpd, StrategyPromoteALL, StrategyMaterializeALL}
	for _, s := range cases {
		db := testDB(t, core.SnapshotFUW, core.PlatformPostgres)
		tx := db.Begin()
		if err := RunIn(tx, s, Balance, Params{N1: CustomerName(1)}); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if tx.ReadOnly() {
			t.Fatalf("%s: Balance must become an updater (Table I)", s.Name)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		sav, chk := balanceOf(t, db, 1)
		if sav != 1000 || chk != 500 {
			t.Fatalf("%s: identity/conflict updates altered balances: %d/%d", s.Name, sav, chk)
		}
	}
	// The commercial sfu flavour also makes Balance non-read-only (it
	// holds a write-conflicting lock).
	db := testDB(t, core.SnapshotFUW, core.PlatformCommercial)
	tx := db.Begin()
	if err := RunIn(tx, StrategyPromoteBWSfu, Balance, Params{N1: CustomerName(1)}); err != nil {
		t.Fatal(err)
	}
	if tx.ReadOnly() {
		t.Fatal("commercial sfu Balance must not count as read-only")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestBalanceStaysReadOnlyUnderWTStrategies(t *testing.T) {
	for _, s := range []*Strategy{StrategyMaterializeWT, StrategyPromoteWTUpd} {
		db := testDB(t, core.SnapshotFUW, core.PlatformPostgres)
		tx := db.Begin()
		if err := RunIn(tx, s, Balance, Params{N1: CustomerName(1)}); err != nil {
			t.Fatal(err)
		}
		if !tx.ReadOnly() {
			t.Fatalf("%s: Option WT must keep Balance read-only", s.Name)
		}
		tx.Abort()
	}
}

func TestDepositChecking(t *testing.T) {
	db := testDB(t, core.SnapshotFUW, core.PlatformPostgres)
	if err := Run(db, StrategySI, DepositChecking, Params{N1: CustomerName(2), V: 250}); err != nil {
		t.Fatal(err)
	}
	if _, chk := balanceOf(t, db, 2); chk != 750 {
		t.Fatalf("checking = %d", chk)
	}
	// Negative deposit rolls back.
	err := Run(db, StrategySI, DepositChecking, Params{N1: CustomerName(2), V: -5})
	if !errors.Is(err, core.ErrRollback) {
		t.Fatalf("negative deposit: %v", err)
	}
	if _, chk := balanceOf(t, db, 2); chk != 750 {
		t.Fatal("rolled-back deposit applied")
	}
	// Unknown name rolls back.
	if err := Run(db, StrategySI, DepositChecking, Params{N1: "ghost", V: 5}); !errors.Is(err, core.ErrRollback) {
		t.Fatalf("unknown name: %v", err)
	}
}

func TestTransactSaving(t *testing.T) {
	db := testDB(t, core.SnapshotFUW, core.PlatformPostgres)
	if err := Run(db, StrategySI, TransactSaving, Params{N1: CustomerName(3), V: -400}); err != nil {
		t.Fatal(err)
	}
	if sav, _ := balanceOf(t, db, 3); sav != 600 {
		t.Fatalf("saving = %d", sav)
	}
	// Overdraw rolls back.
	err := Run(db, StrategySI, TransactSaving, Params{N1: CustomerName(3), V: -601})
	if !errors.Is(err, core.ErrRollback) {
		t.Fatalf("overdraw: %v", err)
	}
	if sav, _ := balanceOf(t, db, 3); sav != 600 {
		t.Fatal("rolled-back withdrawal applied")
	}
}

func TestAmalgamate(t *testing.T) {
	db := testDB(t, core.SnapshotFUW, core.PlatformPostgres)
	if err := Run(db, StrategySI, Amalgamate, Params{N1: CustomerName(4), N2: CustomerName(5)}); err != nil {
		t.Fatal(err)
	}
	sav4, chk4 := balanceOf(t, db, 4)
	if sav4 != 0 || chk4 != 0 {
		t.Fatalf("source accounts = %d/%d, want zeroed", sav4, chk4)
	}
	sav5, chk5 := balanceOf(t, db, 5)
	if sav5 != 1000 || chk5 != 500+1500 {
		t.Fatalf("target = %d/%d", sav5, chk5)
	}
	// Total money conserved.
	total, _ := TotalMoney(db)
	if total != 10*1500 {
		t.Fatalf("total = %d", total)
	}
}

func TestWriteCheckPenalty(t *testing.T) {
	db := testDB(t, core.SnapshotFUW, core.PlatformPostgres)
	// Sufficient funds: no penalty.
	if err := Run(db, StrategySI, WriteCheck, Params{N1: CustomerName(6), V: 1200}); err != nil {
		t.Fatal(err)
	}
	if _, chk := balanceOf(t, db, 6); chk != 500-1200 {
		t.Fatalf("checking = %d, want -700 (no penalty: total 1500 >= 1200)", chk)
	}
	// Insufficient funds: one-cent penalty.
	if err := Run(db, StrategySI, WriteCheck, Params{N1: CustomerName(7), V: 2000}); err != nil {
		t.Fatal(err)
	}
	if _, chk := balanceOf(t, db, 7); chk != 500-2001 {
		t.Fatalf("checking = %d, want -1501 (penalty applied)", chk)
	}
}

func TestRunUnknownType(t *testing.T) {
	db := testDB(t, core.SnapshotFUW, core.PlatformPostgres)
	if err := Run(db, StrategySI, TxnType(99), Params{}); err == nil {
		t.Fatal("unknown type accepted")
	}
}

func TestTxnTypeNames(t *testing.T) {
	names := map[TxnType][2]string{
		Balance:         {"Balance", "Bal"},
		DepositChecking: {"DepositChecking", "DC"},
		TransactSaving:  {"TransactSaving", "TS"},
		Amalgamate:      {"Amalgamate", "Amg"},
		WriteCheck:      {"WriteCheck", "WC"},
	}
	for typ, want := range names {
		if typ.String() != want[0] || typ.Short() != want[1] {
			t.Fatalf("%d: %s/%s", typ, typ.String(), typ.Short())
		}
	}
	if TxnType(99).Short() != "?" {
		t.Fatal("unknown Short")
	}
	if NumTxnTypes != 5 {
		t.Fatal("NumTxnTypes")
	}
}

func TestStrategyLookupAndMetadata(t *testing.T) {
	if len(Strategies()) != 10 {
		t.Fatalf("strategies = %d", len(Strategies()))
	}
	seen := map[string]bool{}
	for _, s := range Strategies() {
		if seen[s.Name] {
			t.Fatalf("duplicate strategy name %s", s.Name)
		}
		seen[s.Name] = true
		got, err := ByName(s.Name)
		if err != nil || got != s {
			t.Fatalf("ByName(%s) = %v, %v", s.Name, got, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestExtraUpdatesMatchTable1 checks the strategy decorations against
// the paper's Table I row by row.
func TestExtraUpdatesMatchTable1(t *testing.T) {
	type row map[string][]string
	want := map[string]row{
		"SI":             {},
		"MaterializeWT":  {"WC": {"Conf"}, "TS": {"Conf"}},
		"PromoteWT-upd":  {"WC": {"Sav"}},
		"PromoteWT-sfu":  {"WC": {"Sav(sfu)"}},
		"MaterializeBW":  {"Bal": {"Conf"}, "WC": {"Conf"}},
		"PromoteBW-upd":  {"Bal": {"Check"}},
		"PromoteBW-sfu":  {"Bal": {"Check(sfu)"}},
		"MaterializeALL": {"Bal": {"Conf"}, "WC": {"Conf"}, "TS": {"Conf"}, "DC": {"Conf"}, "Amg": {"Conf×2"}},
		"PromoteALL":     {"Bal": {"Check", "Sav"}, "WC": {"Sav"}},
	}
	for name, wantRow := range want {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		got := s.ExtraUpdates()
		if len(got) != len(wantRow) {
			t.Fatalf("%s: ExtraUpdates = %v, want %v", name, got, wantRow)
		}
		for txn, tables := range wantRow {
			g := got[txn]
			if len(g) != len(tables) {
				t.Fatalf("%s/%s: %v want %v", name, txn, g, tables)
			}
			for i := range tables {
				if g[i] != tables[i] {
					t.Fatalf("%s/%s: %v want %v", name, txn, g, tables)
				}
			}
		}
	}
}

func TestStrategySoundness(t *testing.T) {
	if StrategySI.SoundOn(core.PlatformPostgres) || StrategySI.GuaranteesSerializable() {
		t.Fatal("SI guarantees nothing")
	}
	for _, s := range []*Strategy{StrategyPromoteWTSfu, StrategyPromoteBWSfu} {
		if s.SoundOn(core.PlatformPostgres) {
			t.Fatalf("%s must be unsound on PostgreSQL", s.Name)
		}
		if !s.SoundOn(core.PlatformCommercial) {
			t.Fatalf("%s must be sound on the commercial platform", s.Name)
		}
	}
	for _, s := range []*Strategy{StrategyMaterializeWT, StrategyPromoteWTUpd, StrategyMaterializeBW,
		StrategyPromoteBWUpd, StrategyMaterializeALL, StrategyPromoteALL, StrategyMaterializeWTFixed} {
		if !s.SoundOn(core.PlatformPostgres) || !s.SoundOn(core.PlatformCommercial) {
			t.Fatalf("%s must be sound on both platforms", s.Name)
		}
	}
}

// TestSDGDerivations ties every strategy to the theory: the derived
// program mixes of all repair strategies are SI-safe; plain SI's is not.
func TestSDGDerivations(t *testing.T) {
	for _, s := range Strategies() {
		progs, err := s.SDGPrograms()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		g, err := sdg.New(progs...)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name == "SI" {
			if g.IsSafe() {
				t.Fatal("unmodified SmallBank must have a dangerous structure")
			}
			continue
		}
		if !g.IsSafe() {
			t.Fatalf("%s: derived SDG still has dangerous structures:\n%s", s.Name, g.Describe())
		}
	}
}

// TestWrongKindKeyMisses: a key of the other kind than the column's
// finds nothing, by primary key or through the unique index.
func TestWrongKindKeyMisses(t *testing.T) {
	db := testDB(t, core.SnapshotFUW, core.PlatformPostgres)
	tx := db.Begin()
	defer tx.Abort()
	if _, err := tx.Get(TableSaving, core.Int(1)); err != nil {
		t.Fatal(err)
	}
	if rec, err := tx.Get(TableSaving, core.Str("1")); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("Get(Saving, \"1\") = %v, %v; want ErrNotFound", rec, err)
	}
	if _, err := tx.GetByIndex(TableAccount, "CustomerID", core.Int(1)); err != nil {
		t.Fatal(err)
	}
	if rec, err := tx.GetByIndex(TableAccount, "CustomerID", core.Str("1")); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("GetByIndex(Account.CustomerID, \"1\") = %v, %v; want ErrNotFound", rec, err)
	}
}
