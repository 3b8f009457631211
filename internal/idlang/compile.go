package idlang

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/isa"
)

// Compile parses and compiles Idlite source into a dataflow graph program.
func Compile(file, src string) (*graph.Program, error) {
	f, err := Parse(file, src)
	if err != nil {
		return nil, err
	}
	return CompileFile(file, f)
}

// CompileFile compiles a parsed file.
func CompileFile(file string, f *File) (*graph.Program, error) {
	c := &compiler{file: file, bl: graph.NewBuilder(), funcs: map[string]*funcInfo{}}
	// Pass 1: create one block per function so calls can reference them.
	for _, fd := range f.Funcs {
		if _, dup := c.funcs[fd.Name]; dup {
			return nil, errf(file, fd.Pos, "function %q redefined", fd.Name)
		}
		if intrinsics[fd.Name] || fd.Name == "array" {
			return nil, errf(file, fd.Pos, "function name %q shadows a builtin", fd.Name)
		}
		kind := graph.BlockFunc
		if fd.Name == "main" {
			kind = graph.BlockMain
		}
		params := make([]graph.Param, len(fd.Params))
		for i, p := range fd.Params {
			params[i] = graph.Param{Name: p.Name, Type: kindOf(p.Type)}
		}
		bb := c.bl.NewBlock(fd.Name, kind, params)
		c.funcs[fd.Name] = &funcInfo{decl: fd, bb: bb}
	}
	if _, ok := c.funcs["main"]; !ok {
		return nil, errf(file, Pos{1, 1}, "no main function")
	}
	// Pass 2: compile bodies.
	for _, fd := range f.Funcs {
		if err := c.compileFunc(c.funcs[fd.Name]); err != nil {
			return nil, err
		}
	}
	return c.bl.Program()
}

type compiler struct {
	file  string
	bl    *graph.Builder
	funcs map[string]*funcInfo
}

type funcInfo struct {
	decl *FuncDecl
	bb   *graph.BlockBuilder
}

type binding struct {
	node int
	typ  Type
}

type carriedVar struct {
	name string
	typ  Type
	next int // node producing the next-iteration value
	set  bool
	pos  Pos
}

// env is one block-level compilation scope.
type env struct {
	c      *compiler
	parent *env
	fn     *funcInfo
	bb     *graph.BlockBuilder

	names   map[string]binding
	imports map[string]binding

	freeNames []string // imported outer names, in import order
	freeNodes []int    // the PARENT-side nodes to pass for them

	isLoop   bool
	carried  []carriedVar
	loopVars map[string]bool // loop variables visible here (name set)

	regionDepth int // >0 while compiling inside an if branch
	returned    bool
}

func (e *env) errf(pos Pos, format string, args ...interface{}) error {
	return errf(e.c.file, pos, format, args...)
}

// defined reports whether a name is visible anywhere in the scope chain.
func (e *env) defined(name string) bool {
	for s := e; s != nil; s = s.parent {
		if _, ok := s.names[name]; ok {
			return true
		}
		if _, ok := s.imports[name]; ok {
			return true
		}
	}
	return false
}

// lookup resolves a name, transitively importing it through block
// boundaries as a fresh parameter (the frontend's free-variable threading:
// inner code blocks receive outer values as L-operator arguments).
func (e *env) lookup(name string, pos Pos) (binding, error) {
	if b, ok := e.names[name]; ok {
		return b, nil
	}
	if b, ok := e.imports[name]; ok {
		return b, nil
	}
	if e.parent == nil {
		return binding{}, e.errf(pos, "undefined name %q", name)
	}
	pb, err := e.parent.lookup(name, pos)
	if err != nil {
		return binding{}, err
	}
	node := e.bb.ImportParam(name, kindOf(pb.typ))
	b := binding{node: node, typ: pb.typ}
	e.imports[name] = b
	e.freeNames = append(e.freeNames, name)
	e.freeNodes = append(e.freeNodes, pb.node)
	return b, nil
}

// bind introduces a new single-assignment binding.
func (e *env) bind(name string, b binding, pos Pos) error {
	if e.defined(name) {
		return e.errf(pos, "%q is already bound (single assignment; shadowing is not allowed)", name)
	}
	e.names[name] = b
	return nil
}

func kindOf(t Type) isa.Kind {
	switch t {
	case TInt:
		return isa.KindInt
	case TFloat:
		return isa.KindFloat
	case TBool:
		return isa.KindBool
	case TArray1, TArray2:
		return isa.KindArray
	default:
		return isa.KindInvalid
	}
}

func (c *compiler) compileFunc(fi *funcInfo) error {
	fd := fi.decl
	e := &env{
		c: c, fn: fi, bb: fi.bb,
		names: map[string]binding{}, imports: map[string]binding{},
		loopVars: map[string]bool{},
	}
	for i, p := range fd.Params {
		if err := e.bind(p.Name, binding{node: fi.bb.Param(i), typ: p.Type}, p.Pos); err != nil {
			return err
		}
	}
	if err := e.genStmts(fd.Body.Stmts, true); err != nil {
		return err
	}
	if fd.Ret != TVoid && !e.returned {
		return errf(c.file, fd.Pos, "function %q must end with a return statement", fd.Name)
	}
	return nil
}

// genStmts compiles a statement list. loopTop marks the top level of a loop
// body (where `next` statements are legal) or a function body.
func (e *env) genStmts(stmts []Stmt, topLevel bool) error {
	for i, s := range stmts {
		if e.returned {
			return e.errf(s.stmtPos(), "statement after return")
		}
		if err := e.genStmt(s, topLevel && i >= 0); err != nil {
			return err
		}
	}
	return nil
}

func (e *env) genStmt(s Stmt, topLevel bool) error {
	switch st := s.(type) {
	case *AssignStmt:
		return e.genAssign(st)
	case *NextStmt:
		return e.genNext(st, topLevel)
	case *StoreStmt:
		return e.genStore(st)
	case *ForStmt:
		return e.genFor(st)
	case *WhileStmt:
		return e.genWhile(st)
	case *IfStmt:
		return e.genIf(st)
	case *ReturnStmt:
		return e.genReturn(st)
	case *ExprStmt:
		call, ok := st.X.(*CallExpr)
		if !ok {
			return e.errf(st.Pos, "only calls may be used as statements")
		}
		node, typ, err := e.genCall(call)
		if err != nil {
			return err
		}
		if typ != TVoid {
			return e.errf(st.Pos, "result of %q call is discarded; bind it or make the function void", call.Name)
		}
		_ = node
		return nil
	case *BlockStmt:
		return e.genStmts(st.Stmts, false)
	default:
		return e.errf(s.stmtPos(), "unsupported statement")
	}
}

func (e *env) genAssign(st *AssignStmt) error {
	// Allocation: `A = array(n[, m])`.
	if call, ok := st.X.(*CallExpr); ok && call.Name == "array" {
		if len(call.Args) != 1 && len(call.Args) != 2 {
			return e.errf(st.Pos, "array() takes 1 or 2 extents")
		}
		ext := make([]int, len(call.Args))
		for i, a := range call.Args {
			n, t, err := e.genExpr(a)
			if err != nil {
				return err
			}
			if t != TInt {
				return e.errf(a.exprPos(), "array extent must be int, got %s", t)
			}
			ext[i] = n
		}
		node := e.bb.Alloc(st.Name, ext)
		typ := TArray1
		if len(ext) == 2 {
			typ = TArray2
		}
		return e.bind(st.Name, binding{node: node, typ: typ}, st.Pos)
	}
	node, typ, err := e.genExpr(st.X)
	if err != nil {
		return err
	}
	if typ == TVoid {
		return e.errf(st.Pos, "cannot bind the result of a void call")
	}
	return e.bind(st.Name, binding{node: node, typ: typ}, st.Pos)
}

func (e *env) genNext(st *NextStmt, topLevel bool) error {
	if !e.isLoop || !topLevel {
		return e.errf(st.Pos, "`next` is only allowed at the top level of a loop body")
	}
	for i := range e.carried {
		cv := &e.carried[i]
		if cv.name != st.Name {
			continue
		}
		if cv.set {
			return e.errf(st.Pos, "`next %s` appears twice in this loop", st.Name)
		}
		node, typ, err := e.genExpr(st.X)
		if err != nil {
			return err
		}
		node, typ, err = e.coerce(node, typ, cv.typ, st.X.exprPos())
		if err != nil {
			return err
		}
		cv.next = node
		cv.set = true
		return nil
	}
	return e.errf(st.Pos, "internal: carried variable %q not pre-registered", st.Name)
}

func (e *env) genStore(st *StoreStmt) error {
	b, err := e.lookup(st.Array, st.Pos)
	if err != nil {
		return err
	}
	if !b.typ.IsArray() {
		return e.errf(st.Pos, "%q is not an array", st.Array)
	}
	if len(st.Idx) != b.typ.Dims() {
		return e.errf(st.Pos, "%q has %d dimension(s), %d indices given", st.Array, b.typ.Dims(), len(st.Idx))
	}
	idx := make([]int, len(st.Idx))
	subs := make([]graph.Subscript, len(st.Idx))
	for i, ix := range st.Idx {
		n, t, err := e.genExpr(ix)
		if err != nil {
			return err
		}
		if t != TInt {
			return e.errf(ix.exprPos(), "array index must be int, got %s", t)
		}
		idx[i] = n
		subs[i] = e.classifySub(ix)
	}
	v, vt, err := e.genExpr(st.X)
	if err != nil {
		return err
	}
	v, _, err = e.coerce(v, vt, TFloat, st.X.exprPos())
	if err != nil {
		return e.errf(st.X.exprPos(), "array elements are float; cannot store %s", vt)
	}
	e.bb.AWrite(st.Array, b.node, idx, v, subs)
	return nil
}

func (e *env) genReturn(st *ReturnStmt) error {
	if e.parent != nil || e.regionDepth > 0 {
		return e.errf(st.Pos, "return is only allowed at the top level of a function body")
	}
	ret := e.fn.decl.Ret
	if ret == TVoid {
		return e.errf(st.Pos, "void function %q cannot return a value", e.fn.decl.Name)
	}
	node, typ, err := e.genExpr(st.X)
	if err != nil {
		return err
	}
	node, typ, err = e.coerce(node, typ, ret, st.X.exprPos())
	if err != nil {
		return err
	}
	e.bb.Return(node, kindOf(typ))
	e.returned = true
	return nil
}

func (e *env) genIf(st *IfStmt) error {
	cond, ct, err := e.genExpr(st.Cond)
	if err != nil {
		return err
	}
	if ct != TBool {
		return e.errf(st.Cond.exprPos(), "if condition must be bool, got %s", ct)
	}
	ifNode := e.bb.If(cond)
	e.regionDepth++
	saved := snapshot(e.names)
	if err := e.genStmts(st.Then.Stmts, false); err != nil {
		return err
	}
	e.names = saved
	e.bb.EndThen(ifNode, -1)
	saved = snapshot(e.names)
	if st.Else != nil {
		if err := e.genStmts(st.Else.Stmts, false); err != nil {
			return err
		}
	}
	e.names = saved
	e.bb.EndIf(ifNode, -1)
	e.regionDepth--
	return nil
}

func snapshot(m map[string]binding) map[string]binding {
	out := make(map[string]binding, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// scanCarried pre-registers the loop-carried scalars of a loop body:
// top-level `next x` statements whose x is bound in an enclosing scope.
func (e *env) scanCarried(body *BlockStmt, loopVar string) ([]carriedVar, error) {
	var carried []carriedVar
	seen := map[string]bool{}
	for _, s := range body.Stmts {
		nx, ok := s.(*NextStmt)
		if !ok {
			continue
		}
		if loopVar != "" && nx.Name == loopVar {
			return nil, e.errf(nx.Pos, "cannot `next` the loop variable %q", nx.Name)
		}
		if seen[nx.Name] {
			return nil, e.errf(nx.Pos, "`next %s` appears twice", nx.Name)
		}
		seen[nx.Name] = true
		pb, err := e.lookup(nx.Name, nx.Pos)
		if err != nil {
			return nil, e.errf(nx.Pos, "`next %s`: %q is not bound in an enclosing scope", nx.Name, nx.Name)
		}
		if pb.typ.IsArray() || pb.typ == TVoid {
			return nil, e.errf(nx.Pos, "only scalars can be loop-carried, %q is %s", nx.Name, pb.typ)
		}
		carried = append(carried, carriedVar{name: nx.Name, typ: pb.typ, pos: nx.Pos})
	}
	return carried, nil
}

// finishLoop emits the loop node's outputs in the parent scope: each
// carried scalar is rebound to its final value (Id loop semantics).
func (e *env) finishLoop(loopNode int, carried []carriedVar, pos Pos) error {
	for k, cv := range carried {
		out := e.bb.LoopOut(loopNode, k, kindOf(cv.typ))
		if e.regionDepth > 0 {
			return e.errf(pos, "a loop carrying %q cannot appear inside an if branch (its final value would escape the branch)", cv.name)
		}
		if e.isLoop {
			if _, own := e.names[cv.name]; !own {
				carriedHere := false
				for _, c2 := range e.carried {
					if c2.name == cv.name {
						carriedHere = true
					}
				}
				if !carriedHere {
					return e.errf(pos, "%q is updated by this inner loop but not declared `next %s` in the enclosing loop", cv.name, cv.name)
				}
			}
		}
		e.names[cv.name] = binding{node: out, typ: cv.typ}
	}
	return nil
}

// genFor compiles a loop statement into a child loop block plus an OpLoop
// spawn in the current block (the L operator of Figure 2).
func (e *env) genFor(st *ForStmt) error {
	carried, err := e.scanCarried(st.Body, st.Var)
	if err != nil {
		return err
	}

	if e.defined(st.Var) {
		return e.errf(st.Pos, "loop variable %q shadows an existing binding", st.Var)
	}

	blockName := fmt.Sprintf("%s.%s.L%d", e.fn.decl.Name, st.Var, st.Pos.Line)
	cb := e.c.bl.NewBlock(blockName, graph.BlockLoop, []graph.Param{
		{Name: "$init", Type: isa.KindInt}, {Name: "$limit", Type: isa.KindInt},
	})

	child := &env{
		c: e.c, parent: e, fn: e.fn, bb: cb,
		names: map[string]binding{}, imports: map[string]binding{},
		isLoop: true, carried: carried,
		loopVars: map[string]bool{},
	}
	for v := range e.loopVars {
		child.loopVars[v] = true
	}
	child.loopVars[st.Var] = true
	child.names[st.Var] = binding{node: cb.LoopVar(), typ: TInt}
	for k := range carried {
		cv := &child.carried[k]
		child.names[cv.name] = binding{node: cb.CarriedVar(k, kindOf(cv.typ)), typ: cv.typ}
	}

	if err := child.genStmts(st.Body.Stmts, true); err != nil {
		return err
	}
	meta := &graph.LoopMeta{Var: st.Var, Descending: st.Down}
	for k := range child.carried {
		cv := &child.carried[k]
		if !cv.set {
			return e.errf(cv.pos, "internal: carried %q never set", cv.name)
		}
		meta.Carried = append(meta.Carried, graph.Carried{Name: cv.name, Type: kindOf(cv.typ), NextNode: cv.next})
		cb.AppendParamDecl("$carry."+cv.name, kindOf(cv.typ))
	}
	cb.SetLoop(meta)

	// Parent side: bounds, free args, carried inits, the loop node itself.
	from, ft, err := e.genExpr(st.From)
	if err != nil {
		return err
	}
	if ft != TInt {
		return e.errf(st.From.exprPos(), "loop bound must be int, got %s", ft)
	}
	to, tt, err := e.genExpr(st.To)
	if err != nil {
		return err
	}
	if tt != TInt {
		return e.errf(st.To.exprPos(), "loop bound must be int, got %s", tt)
	}
	carriedInit := make([]int, len(carried))
	for k, cv := range carried {
		pb, err := e.lookup(cv.name, cv.pos)
		if err != nil {
			return err
		}
		carriedInit[k] = pb.node
	}
	loopNode := e.bb.ForLoop(cb.Block(), from, to, child.freeNodes, carriedInit)
	return e.finishLoop(loopNode, carried, st.Pos)
}

// genWhile compiles a condition-controlled loop: the condition sub-graph is
// compiled first into the child block (it is re-evaluated every iteration,
// reading the carried scalars), then the body.
func (e *env) genWhile(st *WhileStmt) error {
	carried, err := e.scanCarried(st.Body, "")
	if err != nil {
		return err
	}

	blockName := fmt.Sprintf("%s.while.L%d", e.fn.decl.Name, st.Pos.Line)
	cb := e.c.bl.NewBlock(blockName, graph.BlockLoop, nil)

	child := &env{
		c: e.c, parent: e, fn: e.fn, bb: cb,
		names: map[string]binding{}, imports: map[string]binding{},
		isLoop: true, carried: carried,
		loopVars: map[string]bool{},
	}
	for v := range e.loopVars {
		child.loopVars[v] = true
	}
	for k := range carried {
		cv := &child.carried[k]
		child.names[cv.name] = binding{node: cb.CarriedVar(k, kindOf(cv.typ)), typ: cv.typ}
	}

	condNode, condType, err := child.genExpr(st.Cond)
	if err != nil {
		return err
	}
	if condType != TBool {
		return e.errf(st.Cond.exprPos(), "while condition must be bool, got %s", condType)
	}
	boundary := len(cb.Block().Body)

	if err := child.genStmts(st.Body.Stmts, true); err != nil {
		return err
	}
	meta := &graph.LoopMeta{While: true, CondNode: condNode, CondBoundary: boundary}
	for k := range child.carried {
		cv := &child.carried[k]
		if !cv.set {
			return e.errf(cv.pos, "internal: carried %q never set", cv.name)
		}
		meta.Carried = append(meta.Carried, graph.Carried{Name: cv.name, Type: kindOf(cv.typ), NextNode: cv.next})
		cb.AppendParamDecl("$carry."+cv.name, kindOf(cv.typ))
	}
	cb.SetLoop(meta)

	carriedInit := make([]int, len(carried))
	for k, cv := range carried {
		pb, err := e.lookup(cv.name, cv.pos)
		if err != nil {
			return err
		}
		carriedInit[k] = pb.node
	}
	loopNode := e.bb.WhileLoop(cb.Block(), child.freeNodes, carriedInit)
	return e.finishLoop(loopNode, carried, st.Pos)
}

// classifySub classifies an index expression for dependence analysis:
// v, v+c, v-c (v a visible loop variable) are affine; all else is opaque.
func (e *env) classifySub(x Expr) graph.Subscript {
	switch ix := x.(type) {
	case *Ident:
		if e.loopVars[ix.Name] {
			return graph.Sub(ix.Name, 0)
		}
	case *BinExpr:
		if ix.Op == "+" || ix.Op == "-" {
			if id, ok := ix.L.(*Ident); ok && e.loopVars[id.Name] {
				if lit, ok := ix.R.(*IntLit); ok {
					off := lit.Val
					if ix.Op == "-" {
						off = -off
					}
					return graph.Sub(id.Name, off)
				}
			}
			if lit, ok := ix.L.(*IntLit); ok && ix.Op == "+" {
				if id, ok := ix.R.(*Ident); ok && e.loopVars[id.Name] {
					return graph.Sub(id.Name, lit.Val)
				}
			}
		}
	}
	return graph.SubOther()
}
