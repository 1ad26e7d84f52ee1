package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"

	rferrors "rfview/errors"
	"rfview/internal/sqlparser"
	"rfview/internal/txn"
)

// Session is a connection-scoped statement executor that understands BEGIN /
// COMMIT / ROLLBACK. Outside a transaction it delegates to the engine
// directly (keeping the plan cache); inside one it
// pins every statement to the transaction's snapshot. The server gives each
// client connection a Session; library callers embedding the engine create
// one with NewSession when they need multi-statement transactions.
//
// A Session serializes its own statements (one transaction is a single
// logical thread of control); different Sessions run concurrently.
type Session struct {
	eng *Engine
	mu  sync.Mutex
	tx  *txn.Txn
}

// NewSession creates a session bound to the engine.
func (e *Engine) NewSession() *Session { return &Session{eng: e} }

// InTxn reports whether the session has an open transaction.
func (s *Session) InTxn() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tx != nil
}

// txnControl classifies sql's leading keyword as one of the transaction
// control statements, without a full parse.
func txnControl(sql string) string {
	i := 0
	for i < len(sql) && (sql[i] == ' ' || sql[i] == '\t' || sql[i] == '\n' || sql[i] == '\r' || sql[i] == ';') {
		i++
	}
	j := i
	for j < len(sql) && ((sql[j] >= 'a' && sql[j] <= 'z') || (sql[j] >= 'A' && sql[j] <= 'Z')) {
		j++
	}
	switch kw := strings.ToUpper(sql[i:j]); kw {
	case "BEGIN", "START", "COMMIT", "ROLLBACK", "END":
		return kw
	}
	return ""
}

// Exec executes one statement in the session without a deadline.
func (s *Session) Exec(sql string) (*Result, error) {
	return s.ExecContext(context.Background(), sql)
}

// ExecContext executes one statement in the session. BEGIN opens a
// transaction (an error if one is open); COMMIT publishes it atomically;
// ROLLBACK discards it. Statements between BEGIN and COMMIT read at the
// transaction's snapshot and write pending versions invisible to other
// sessions; DDL and REFRESH are rejected inside a transaction. A write-write
// conflict rolls the whole transaction back — the returned error carries
// code "conflict" and the session is out of the transaction.
func (s *Session) ExecContext(ctx context.Context, sql string, opts ...ExecOption) (*Result, error) {
	if txnControl(sql) != "" {
		// Full parse validates trailing noise words ("BEGIN TRANSACTION",
		// "COMMIT WORK") and rejects garbage after the keyword.
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			return nil, rferrors.Wrap(rferrors.CodeParse, err)
		}
		return s.execStmt(ctx, stmt, opts...)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.settle(s.eng.ExecContext(ctx, sql, s.txnOpts(opts)...))
}

// execStmt is ExecContext for a parsed statement: it runs what was parsed,
// without rendering it back to text.
func (s *Session) execStmt(ctx context.Context, stmt sqlparser.Statement, opts ...ExecOption) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch stmt.(type) {
	case *sqlparser.Begin:
		if s.tx != nil {
			return nil, rferrors.New(rferrors.CodeTxnState, "already in a transaction")
		}
		s.tx = s.eng.BeginTxn()
		return &Result{}, nil
	case *sqlparser.Commit:
		if s.tx == nil {
			return nil, rferrors.New(rferrors.CodeTxnState, "no transaction in progress")
		}
		tx := s.tx
		s.tx = nil
		if err := s.eng.CommitTxn(tx); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparser.Rollback:
		if s.tx == nil {
			return nil, rferrors.New(rferrors.CodeTxnState, "no transaction in progress")
		}
		tx := s.tx
		s.tx = nil
		s.eng.RollbackTxn(tx)
		return &Result{}, nil
	}
	return s.settle(s.eng.ExecStmtContext(ctx, stmt, s.txnOpts(opts)...))
}

// txnOpts adds the session's open transaction, if any, to opts.
func (s *Session) txnOpts(opts []ExecOption) []ExecOption {
	if s.tx == nil {
		return opts
	}
	return append(opts[:len(opts):len(opts)], inTxn(s.tx))
}

// settle passes a statement's outcome on, forgetting the session's
// transaction when the engine rolled it back on a write-write conflict
// (first-committer wins).
func (s *Session) settle(res *Result, err error) (*Result, error) {
	if err != nil && s.tx != nil && rferrors.CodeOf(err) == rferrors.CodeConflict {
		s.tx = nil
	}
	return res, err
}

// ExecAll executes a semicolon-separated script through the session: the
// context.Background() convenience form of ExecAllContext.
func (s *Session) ExecAll(script string) ([]*Result, error) {
	return s.ExecAllContext(context.Background(), script)
}

// ExecAllContext executes a semicolon-separated script through the session
// under ctx, returning one result per statement and stopping at the first
// error. Unlike Engine.ExecAllContext it understands BEGIN/COMMIT/ROLLBACK,
// so scripts can group statements into transactions. A transaction left open
// at the end of the script stays open on the session.
func (s *Session) ExecAllContext(ctx context.Context, script string) ([]*Result, error) {
	stmts, err := sqlparser.ParseAll(script)
	if err != nil {
		return nil, rferrors.Wrap(rferrors.CodeParse, err)
	}
	out := make([]*Result, 0, len(stmts))
	for _, stmt := range stmts {
		res, err := s.execStmt(ctx, stmt)
		if err != nil {
			return out, fmt.Errorf("in %q: %w", stmt.String(), err)
		}
		out = append(out, res)
	}
	return out, nil
}

// Close rolls back any open transaction. The server calls it when a client
// disconnects; it is safe to call multiple times.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tx != nil {
		s.eng.RollbackTxn(s.tx)
		s.tx = nil
	}
}
