package program

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"strconv"
	"strings"
)

// wrapHeader turns a script (a function body) into a parseable Go file.
// It adds exactly two lines before the user's first line; compile errors
// subtract that offset so positions point into the script.
const wrapHeader = "package p\nfunc gen() {\n"
const wrapHeaderLines = 2

// Compile parses and compiles a strategy script. The script is the body
// of a Go function; see the package documentation for the accepted
// subset and the bound input variables.
func Compile(src string) (*Program, error) {
	if len(src) > MaxSourceBytes {
		return nil, fmt.Errorf("%w: source is %d bytes, limit %d", ErrCompile, len(src), MaxSourceBytes)
	}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "script", wrapHeader+src+"\n}", 0)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", ErrCompile, parseErrString(err))
	}
	if len(file.Decls) != 1 {
		return nil, fmt.Errorf("%w: script must be a single function body (found extra declarations)", ErrCompile)
	}
	fn, ok := file.Decls[0].(*ast.FuncDecl)
	if !ok || fn.Body == nil {
		return nil, fmt.Errorf("%w: script must be a single function body", ErrCompile)
	}
	c := &compiler{
		fset:  fset,
		slots: make(map[string]int, numInputSlots+8),
	}
	for i, name := range inputNames {
		c.slots[name] = i
	}
	body, err := c.compileStmts(fn.Body.List)
	if err != nil {
		return nil, err
	}
	p := &Program{
		body:   body,
		locals: len(c.slots),
		nodes:  c.nodes,
	}
	p.computeHash()
	return p, nil
}

// MustCompile compiles a script known at build time and panics on error.
func MustCompile(src string) *Program {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

// parseErrString rewrites parser error positions so line numbers refer
// to the script, not the wrapped file.
func parseErrString(err error) string {
	list, ok := err.(scanner.ErrorList)
	if !ok {
		return err.Error()
	}
	parts := make([]string, 0, len(list))
	for i, e := range list {
		if i == 4 {
			parts = append(parts, "...")
			break
		}
		line := e.Pos.Line - wrapHeaderLines
		if line < 1 {
			line = 1
		}
		parts = append(parts, fmt.Sprintf("line %d: %s", line, e.Msg))
	}
	return strings.Join(parts, "; ")
}

type compiler struct {
	fset  *token.FileSet
	slots map[string]int
	nodes int
	depth int
}

func (c *compiler) errAt(node ast.Node, format string, args ...any) error {
	pos := c.fset.Position(node.Pos())
	line := pos.Line - wrapHeaderLines
	if line < 1 {
		line = 1
	}
	return fmt.Errorf("%w: line %d: %s", ErrCompile, line, fmt.Sprintf(format, args...))
}

func (c *compiler) node(n ast.Node) error {
	c.nodes++
	if c.nodes > MaxProgramNodes {
		return c.errAt(n, "program exceeds %d IR nodes", MaxProgramNodes)
	}
	return nil
}

func (c *compiler) enter(n ast.Node) error {
	c.depth++
	if c.depth > MaxDepth {
		return c.errAt(n, "nesting exceeds depth %d", MaxDepth)
	}
	return nil
}

func (c *compiler) leave() { c.depth-- }

func (c *compiler) compileStmts(list []ast.Stmt) ([]stmt, error) {
	out := make([]stmt, 0, len(list))
	for _, as := range list {
		s, err := c.compileStmt(as)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (c *compiler) compileStmt(as ast.Stmt) (stmt, error) {
	if err := c.node(as); err != nil {
		return stmt{}, err
	}
	if err := c.enter(as); err != nil {
		return stmt{}, err
	}
	defer c.leave()
	switch n := as.(type) {
	case *ast.AssignStmt:
		return c.compileAssign(n)
	case *ast.IncDecStmt:
		return c.compileIncDec(n)
	case *ast.IfStmt:
		return c.compileIf(n)
	case *ast.ForStmt:
		return c.compileFor(n)
	case *ast.BranchStmt:
		switch n.Tok {
		case token.BREAK:
			if n.Label != nil {
				return stmt{}, c.errAt(n, "labeled break is not supported")
			}
			return stmt{kind: stBreak}, nil
		case token.CONTINUE:
			if n.Label != nil {
				return stmt{}, c.errAt(n, "labeled continue is not supported")
			}
			return stmt{kind: stContinue}, nil
		}
		return stmt{}, c.errAt(n, "%s is not supported", n.Tok)
	case *ast.ReturnStmt:
		if len(n.Results) != 0 {
			return stmt{}, c.errAt(n, "return takes no values")
		}
		return stmt{kind: stReturn}, nil
	case *ast.ExprStmt:
		return c.compileEmit(n)
	case *ast.BlockStmt:
		body, err := c.compileStmts(n.List)
		if err != nil {
			return stmt{}, err
		}
		// A bare block compiles to an if(1){...}; blocks do not
		// introduce scope in this flat-scoped language.
		return stmt{kind: stIf, cond: &expr{op: opConst, val: 1}, body: body}, nil
	case *ast.EmptyStmt:
		return stmt{kind: stIf, cond: &expr{op: opConst, val: 1}}, nil
	default:
		return stmt{}, c.errAt(as, "%T statements are not supported", as)
	}
}

func (c *compiler) compileAssign(n *ast.AssignStmt) (stmt, error) {
	if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
		return stmt{}, c.errAt(n, "assignments must have a single variable on each side")
	}
	id, ok := n.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return stmt{}, c.errAt(n, "assignment target must be a variable name")
	}
	rhs, err := c.compileExpr(n.Rhs[0])
	if err != nil {
		return stmt{}, err
	}
	slot, defined := c.slots[id.Name]
	switch n.Tok {
	case token.DEFINE:
		if defined {
			return stmt{}, c.errAt(n, "%s is already defined (this language has one flat scope; use = to assign)", id.Name)
		}
		slot = len(c.slots)
		c.slots[id.Name] = slot
	case token.ASSIGN:
		if !defined {
			return stmt{}, c.errAt(n, "%s is not defined (use := to define it)", id.Name)
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if !defined {
			return stmt{}, c.errAt(n, "%s is not defined (use := to define it)", id.Name)
		}
		op := map[token.Token]exprOp{
			token.ADD_ASSIGN: opAdd,
			token.SUB_ASSIGN: opSub,
			token.MUL_ASSIGN: opMul,
			token.QUO_ASSIGN: opDiv,
		}[n.Tok]
		if err := c.node(n); err != nil { // the implied binary op
			return stmt{}, err
		}
		rhs = expr{op: op, args: []expr{{op: opVar, slot: slot}, rhs}}
	default:
		return stmt{}, c.errAt(n, "%s assignment is not supported", n.Tok)
	}
	r := rhs
	return stmt{kind: stAssign, slot: slot, x: &r}, nil
}

func (c *compiler) compileIncDec(n *ast.IncDecStmt) (stmt, error) {
	id, ok := n.X.(*ast.Ident)
	if !ok {
		return stmt{}, c.errAt(n, "%s target must be a variable name", n.Tok)
	}
	slot, defined := c.slots[id.Name]
	if !defined {
		return stmt{}, c.errAt(n, "%s is not defined", id.Name)
	}
	op := opAdd
	if n.Tok == token.DEC {
		op = opSub
	}
	if err := c.node(n); err != nil {
		return stmt{}, err
	}
	rhs := expr{op: op, args: []expr{{op: opVar, slot: slot}, {op: opConst, val: 1}}}
	return stmt{kind: stAssign, slot: slot, x: &rhs}, nil
}

func (c *compiler) compileIf(n *ast.IfStmt) (stmt, error) {
	if n.Init != nil {
		return stmt{}, c.errAt(n, "if with an init statement is not supported")
	}
	cond, err := c.compileExpr(n.Cond)
	if err != nil {
		return stmt{}, err
	}
	body, err := c.compileStmts(n.Body.List)
	if err != nil {
		return stmt{}, err
	}
	var els []stmt
	switch e := n.Else.(type) {
	case nil:
	case *ast.BlockStmt:
		if els, err = c.compileStmts(e.List); err != nil {
			return stmt{}, err
		}
	case *ast.IfStmt:
		chained, err := c.compileStmt(e)
		if err != nil {
			return stmt{}, err
		}
		els = []stmt{chained}
	default:
		return stmt{}, c.errAt(n, "unsupported else clause")
	}
	cc := cond
	return stmt{kind: stIf, cond: &cc, body: body, els: els}, nil
}

func (c *compiler) compileFor(n *ast.ForStmt) (stmt, error) {
	var out stmt
	out.kind = stFor
	if n.Init != nil {
		init, err := c.compileStmt(n.Init)
		if err != nil {
			return stmt{}, err
		}
		if init.kind != stAssign {
			return stmt{}, c.errAt(n, "for init must be an assignment")
		}
		ii := init
		out.init = &ii
	}
	if n.Cond != nil {
		cond, err := c.compileExpr(n.Cond)
		if err != nil {
			return stmt{}, err
		}
		cc := cond
		out.cond = &cc
	}
	if n.Post != nil {
		post, err := c.compileStmt(n.Post)
		if err != nil {
			return stmt{}, err
		}
		if post.kind != stAssign {
			return stmt{}, c.errAt(n, "for post must be an assignment")
		}
		pp := post
		out.post = &pp
	}
	body, err := c.compileStmts(n.Body.List)
	if err != nil {
		return stmt{}, err
	}
	out.body = body
	return out, nil
}

func (c *compiler) compileEmit(n *ast.ExprStmt) (stmt, error) {
	call, ok := n.X.(*ast.CallExpr)
	if !ok {
		return stmt{}, c.errAt(n, "expression statements must be emit(ray, turn) calls")
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "emit" {
		return stmt{}, c.errAt(n, "only emit(ray, turn) may be called as a statement")
	}
	if len(call.Args) != 2 {
		return stmt{}, c.errAt(n, "emit takes exactly 2 arguments (ray, turn), got %d", len(call.Args))
	}
	ray, err := c.compileExpr(call.Args[0])
	if err != nil {
		return stmt{}, err
	}
	turn, err := c.compileExpr(call.Args[1])
	if err != nil {
		return stmt{}, err
	}
	rr, tt := ray, turn
	return stmt{kind: stEmit, x: &rr, y: &tt}, nil
}

func (c *compiler) compileExpr(ae ast.Expr) (expr, error) {
	if err := c.node(ae); err != nil {
		return expr{}, err
	}
	if err := c.enter(ae); err != nil {
		return expr{}, err
	}
	defer c.leave()
	switch n := ae.(type) {
	case *ast.BasicLit:
		switch n.Kind {
		case token.INT, token.FLOAT:
			v, err := strconv.ParseFloat(n.Value, 64)
			if err != nil {
				return expr{}, c.errAt(n, "bad numeric literal %s", n.Value)
			}
			return expr{op: opConst, val: v}, nil
		default:
			return expr{}, c.errAt(n, "only numeric literals are supported, got %s", n.Kind)
		}
	case *ast.Ident:
		slot, ok := c.slots[n.Name]
		if !ok {
			return expr{}, c.errAt(n, "unknown variable %s (inputs are r, m, k, f, alpha, horizon)", n.Name)
		}
		return expr{op: opVar, slot: slot}, nil
	case *ast.ParenExpr:
		c.nodes-- // parens are free: they do not change the IR
		return c.compileExpr(n.X)
	case *ast.UnaryExpr:
		x, err := c.compileExpr(n.X)
		if err != nil {
			return expr{}, err
		}
		switch n.Op {
		case token.SUB:
			return expr{op: opNeg, args: []expr{x}}, nil
		case token.ADD:
			c.nodes--
			return x, nil
		case token.NOT:
			return expr{op: opNot, args: []expr{x}}, nil
		default:
			return expr{}, c.errAt(n, "unary %s is not supported", n.Op)
		}
	case *ast.BinaryExpr:
		op, ok := binaryOps[n.Op]
		if !ok {
			if n.Op == token.REM {
				return expr{}, c.errAt(n, "%% is not supported; use mod(a, b)")
			}
			return expr{}, c.errAt(n, "binary %s is not supported", n.Op)
		}
		x, err := c.compileExpr(n.X)
		if err != nil {
			return expr{}, err
		}
		y, err := c.compileExpr(n.Y)
		if err != nil {
			return expr{}, err
		}
		return expr{op: op, args: []expr{x, y}}, nil
	case *ast.CallExpr:
		id, ok := n.Fun.(*ast.Ident)
		if !ok {
			return expr{}, c.errAt(n, "only builtin functions may be called")
		}
		if id.Name == "emit" {
			return expr{}, c.errAt(n, "emit is a statement, not an expression")
		}
		fn, ok := builtinByName[id.Name]
		if !ok {
			return expr{}, c.errAt(n, "unknown function %s (builtins: pow, log, exp, sqrt, abs, floor, ceil, min, max, mod)", id.Name)
		}
		spec := builtins[fn]
		if len(n.Args) != spec.arity {
			return expr{}, c.errAt(n, "%s takes %d arguments, got %d", spec.name, spec.arity, len(n.Args))
		}
		args := make([]expr, 0, spec.arity)
		for _, a := range n.Args {
			x, err := c.compileExpr(a)
			if err != nil {
				return expr{}, err
			}
			args = append(args, x)
		}
		return expr{op: opCall, fn: fn, args: args}, nil
	default:
		return expr{}, c.errAt(ae, "%T expressions are not supported", ae)
	}
}

var binaryOps = map[token.Token]exprOp{
	token.ADD:  opAdd,
	token.SUB:  opSub,
	token.MUL:  opMul,
	token.QUO:  opDiv,
	token.LSS:  opLT,
	token.LEQ:  opLE,
	token.GTR:  opGT,
	token.GEQ:  opGE,
	token.EQL:  opEQ,
	token.NEQ:  opNE,
	token.LAND: opAnd,
	token.LOR:  opOr,
}
