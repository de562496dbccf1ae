// Command sisql is an interactive SQL shell over the sicost engine with
// the SmallBank database pre-loaded: useful for poking at snapshot
// isolation by hand (open two terminals, BEGIN in both, and reproduce
// the §II-C interleavings yourself — within one process, sessions are
// numbered and switched with \1, \2, ...).
//
//	go run ./cmd/sisql
//	sql> SELECT Balance FROM Checking WHERE CustomerId = 7
//	sql> BEGIN
//	sql> UPDATE Checking SET Balance = Balance + 100 WHERE CustomerId = 7
//	sql> COMMIT
//
// The shell is an in-process transport over the same session layer the
// network server (cmd/sisqld) uses, so statement semantics, abort
// classification and transaction lifecycle cannot diverge between the
// two — including disconnect safety: quitting with open transactions
// rolls them back.
//
// Meta commands: \1..\9 switch session, \mode prints the engine mode,
// \q quits (rolling back any open transactions).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/server"
	"sicost/internal/smallbank"
)

func main() {
	var (
		mode      = flag.String("mode", "si", "concurrency control: si, 2pl or ssi")
		platform  = flag.String("platform", "postgres", "platform: postgres or commercial")
		customers = flag.Int("customers", 100, "SmallBank customers to load")
	)
	flag.Parse()

	plat, ccMode, err := core.ParseProfile(*platform, *mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sisql:", err)
		os.Exit(2)
	}
	cfg := engine.Config{Mode: ccMode, Platform: plat}

	db, _, err := smallbank.Open(cfg, smallbank.LoadConfig{Customers: *customers, Seed: 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sisql:", err)
		os.Exit(1)
	}
	defer db.Close()
	fmt.Printf("sicost SQL shell — %s/%s, SmallBank with %d customers (names %q..)\n",
		cfg.Mode, cfg.Platform, *customers, smallbank.CustomerName(0))
	fmt.Println(`dialect: SELECT/UPDATE/INSERT/DELETE with "WHERE col = value", BEGIN/COMMIT/ROLLBACK; \q quits`)

	sessions := map[int]*server.Session{1: server.NewSession(db, server.SessionConfig{})}
	cur := 1
	// quit rolls back every session's open transaction before the shell
	// exits — the shell honors the same disconnect-safety contract as a
	// dropped network connection.
	quit := func() {
		for id, sess := range sessions {
			if sess.Close() {
				fmt.Printf("(session %d: open transaction rolled back)\n", id)
			}
		}
	}
	scanner := bufio.NewScanner(os.Stdin)
	for {
		fmt.Printf("sql[%d]> ", cur)
		if !scanner.Scan() {
			quit()
			return
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, `\`) {
			switch {
			case line == `\q`:
				quit()
				return
			case line == `\mode`:
				fmt.Printf("%s on %s\n", cfg.Mode, cfg.Platform)
			case len(line) == 2 && line[1] >= '1' && line[1] <= '9':
				cur = int(line[1] - '0')
				if sessions[cur] == nil {
					sessions[cur] = server.NewSession(db, server.SessionConfig{})
					fmt.Printf("(new session %d)\n", cur)
				}
			default:
				fmt.Println(`meta commands: \1..\9 sessions, \mode, \q`)
			}
			continue
		}
		render(sessions[cur].Execute(line))
	}
}

// render prints one structured response the way a shell user reads it.
func render(r server.Response) {
	if r.Err != "" {
		fmt.Println("error:", r.Err)
		if r.Retriable {
			fmt.Println("(transient failure: the transaction is aborted; ROLLBACK and retry)")
		}
		return
	}
	switch {
	case r.Rows != nil:
		for _, row := range r.Rows {
			parts := make([]string, len(row))
			for i, v := range row {
				parts[i] = fmt.Sprint(v)
			}
			fmt.Println(strings.Join(parts, " | "))
		}
		fmt.Printf("(%d row)\n", len(r.Rows))
	case r.Status == "OK":
		fmt.Printf("OK (%d row)\n", r.Affected)
	default:
		fmt.Println(r.Status)
	}
}
