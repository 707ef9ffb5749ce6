"""Tree-walking interpreter: pseudocode AST → kernel tasks.

Implements the atomicity model stated across the paper's Figures 1-5:

* *simple statements are executed atomically* — each statement executes
  between two scheduler yield points; the leading ``Pause`` marks the
  statement boundary where other tasks may interleave;
* *condition calculation is not necessarily atomic if it involves
  function call statements; the choice of branch is atomic* — condition
  expressions evaluate inline, but any user-function call inside them
  yields at the callee's own statement boundaries;
* *statements within PARA/ENDPARA execute concurrently* — each arm is a
  kernel task; the enclosing task joins all arms at ``ENDPARA``;
* *statements of a called function execute sequentially* but interleave
  with other arms — a call runs in the caller's task;
* ``EXC_ACC`` acquires the monitor of the block's exclusion group (see
  :mod:`repro.pseudocode.analysis`); ``WAIT()``/``NOTIFY()`` act on the
  innermost held group monitor with Mesa broadcast semantics;
* ``Send(...).To(...)`` is asynchronous; ``ON_RECEIVING`` is a daemon
  message loop on the instance's mailbox, whose delivery policy decides
  which arrival orders are possible.

The interpreter is written so a *program* (in the explorer's sense) can
be built from source once and executed under any policy: every run gets
fresh globals, monitors and mailboxes.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from ..core.effects import (Acquire, Effect, Emit, Join, Notify, Pause,
                            Receive, Release, Send, Spawn, Wait,
                            message_kind)
from ..core.mailbox import DeliveryPolicy
from ..core.policy import SchedulingPolicy
from ..core.scheduler import Scheduler
from ..core.monitor import SimMonitor
from ..core.trace import Trace
from .analysis import ProgramInfo, analyze
from .ast_nodes import (Assign, Binary, Call, ExcAccBlock, ExprStmt,
                        FieldAssign, FunctionDef, IfStmt, Literal,
                        MessageExpr, MethodCall, NewExpr, NotifyStmt,
                        OnReceiving, ParaBlock, PrintStmt, Program,
                        ReceiveArm, ReturnStmt, SendStmt, Stmt, Unary, Var,
                        WaitStmt, WhileStmt)
from .parser import parse
from .values import Instance, MessageValue, format_value

__all__ = ["PseudoRuntimeError", "Runtime", "PseudoResult", "interpret",
           "compile_program"]


class PseudoRuntimeError(Exception):
    """Runtime fault in a pseudocode program (bad name, bad operand...)."""


class _ReturnSignal(Exception):
    def __init__(self, value: Any):
        self.value = value


class _TaskCtx:
    """Per-kernel-task interpreter state: the held-monitor stack."""

    __slots__ = ("monitors",)

    def __init__(self) -> None:
        self.monitors: list[SimMonitor] = []


class _Env:
    """Name environment: shared globals + optional function locals +
    the ``this`` instance for method bodies."""

    __slots__ = ("globals", "locals", "instance")

    def __init__(self, globals_: dict, locals_: Optional[dict] = None,
                 instance: Optional[Instance] = None):
        self.globals = globals_
        self.locals = locals_
        self.instance = instance

    def lookup(self, name: str, line: int) -> Any:
        if self.locals is not None and name in self.locals:
            return self.locals[name]
        if name in self.globals:
            return self.globals[name]
        if name == "this" and self.instance is not None:
            return self.instance
        raise PseudoRuntimeError(f"line {line}: undefined variable {name!r}")

    def assign(self, name: str, value: Any) -> None:
        # paper convention: names first assigned at top level are global;
        # inside a function, a parameter (or an existing local) shadows
        # the global, assignment to a global name updates the global,
        # and any other assignment creates a local.
        if self.locals is not None and name in self.locals:
            self.locals[name] = value
        elif name in self.globals or self.locals is None:
            self.globals[name] = value
        else:
            self.locals[name] = value


class _RunState:
    """Everything that must be fresh per execution."""

    def __init__(self, runtime: "Runtime", sched: Scheduler):
        self.runtime = runtime
        self.sched = sched
        self.globals: dict[str, Any] = {}
        self.monitors: dict[str, SimMonitor] = {
            key: SimMonitor(f"exc[{key}]")
            for key in runtime.info.groups}


def _direct_vars(stmt: Stmt):
    """Variables the statement's *first atomic segment* reads or writes.

    This is the segment between the statement's boundary yield and the
    statement's first internal yield — e.g. for an assignment, the
    right-hand side evaluation plus the store; for an IF, all condition
    evaluations; for a WHILE, the condition.  Statements executed inside
    the segment's callees carry their own boundaries and are excluded.
    """
    from .analysis import _expr_vars
    if isinstance(stmt, Assign):
        yield stmt.name
        yield from _expr_vars(stmt.value)
    elif isinstance(stmt, PrintStmt):
        yield from _expr_vars(stmt.value)
    elif isinstance(stmt, IfStmt):
        for cond, _ in stmt.branches:
            yield from _expr_vars(cond)
    elif isinstance(stmt, WhileStmt):
        yield from _expr_vars(stmt.condition)
    elif isinstance(stmt, SendStmt):
        yield from _expr_vars(stmt.message)
        yield from _expr_vars(stmt.receiver)
    elif isinstance(stmt, ExprStmt):
        yield from _expr_vars(stmt.expr)
    elif isinstance(stmt, ReturnStmt):
        yield from _expr_vars(stmt.value)


def _stmt_label(stmt: Stmt) -> str:
    kind = type(stmt).__name__
    if isinstance(stmt, ExprStmt) and isinstance(stmt.expr, Call):
        return f"L{stmt.line}:{stmt.expr.name}()"
    if isinstance(stmt, ExprStmt) and isinstance(stmt.expr, MethodCall):
        return f"L{stmt.line}:.{stmt.expr.method}()"
    if isinstance(stmt, Assign):
        return f"L{stmt.line}:{stmt.name}="
    return f"L{stmt.line}:{kind}"


class Runtime:
    """A compiled pseudocode program, executable under any scheduler.

    >>> rt = compile_program('''
    ... PARA
    ... PRINT "hello "
    ... PRINT "world "
    ... ENDPARA
    ... ''')
    >>> rt.run().output_text()
    'hello world '
    """

    def __init__(self, program: Program,
                 mailbox_policy: DeliveryPolicy = DeliveryPolicy.ARBITRARY):
        self.program = program
        self.mailbox_policy = mailbox_policy
        self.info: ProgramInfo = analyze(program)

    # ------------------------------------------------------------------
    # explorer integration
    # ------------------------------------------------------------------
    def make_program(self) -> Callable[[Scheduler], Callable[[], Any]]:
        """Return a `Program` callable for :func:`repro.verify.explore`."""

        def program_fn(sched: Scheduler) -> Callable[[], Any]:
            rs = _RunState(self, sched)
            sched.spawn(self._exec_main(rs), name="main")
            return lambda: self._observe(rs)

        return program_fn

    def run(self, policy: Optional[SchedulingPolicy] = None,
            **sched_kw: Any) -> "PseudoResult":
        """Execute once under ``policy`` (default fair round-robin)."""
        sched = Scheduler(policy, **sched_kw)
        rs = _RunState(self, sched)
        sched.spawn(self._exec_main(rs), name="main")
        trace = sched.run()
        return PseudoResult(trace=trace, globals=dict(rs.globals))

    @staticmethod
    def _observe(rs: "_RunState") -> dict[str, Any]:
        simple = (int, float, str, bool, MessageValue, type(None))
        return {k: v for k, v in rs.globals.items() if isinstance(v, simple)}

    # ------------------------------------------------------------------
    # statement execution (generators over kernel effects)
    # ------------------------------------------------------------------
    def _exec_main(self, rs: _RunState) -> Iterator[Effect]:
        env = _Env(rs.globals)
        ctx = _TaskCtx()
        yield from self._exec_stmts(rs, self.program.main, env, ctx)

    def _exec_stmts(self, rs: _RunState, stmts: list[Stmt], env: _Env,
                    ctx: _TaskCtx) -> Iterator[Effect]:
        for stmt in stmts:
            yield from self._exec_stmt(rs, stmt, env, ctx)

    def _needs_boundary(self, stmt: Stmt) -> bool:
        """Statement-boundary elision — a sound partial-order reduction.

        Every statement boundary is a scheduling point, and each point
        multiplies the schedule tree.  A boundary only matters when the
        segment it opens is *observable*: it touches a global variable,
        emits output, or mutates an object field.  Statements whose
        first segment is pure plumbing (entering EXC_ACC — the Acquire
        is the real scheduling point; WAIT/NOTIFY preludes; PARA spawn
        setup; calls whose arguments are local) commute with every
        concurrent action, so eliding their boundary removes redundant
        interleavings without removing any reachable behaviour.
        """
        cached = getattr(stmt, "_boundary", None)
        if cached is not None:
            return cached
        if isinstance(stmt, (PrintStmt, FieldAssign)):
            need = True   # output order / shared object fields are observable
        elif isinstance(stmt, (ExcAccBlock, WaitStmt, NotifyStmt, ParaBlock,
                               OnReceiving)):
            need = False  # the kernel effect itself is the scheduling point
        else:
            need = any(v in self.info.globals for v in _direct_vars(stmt))
        stmt._boundary = need
        return need

    def _boundary_effect(self, stmt: Stmt) -> Effect:
        """The statement-boundary effect, annotated for race detection.

        A boundary whose statement writes a global is an
        ``Access(var, WRITE)``; one that only reads globals is an
        ``Access(var, READ)`` (first such variable — the kernel carries
        one annotation per effect).  The race detector then flags
        unsynchronized conflicting statements in pseudocode programs,
        e.g. the two halves of a split read-modify-write.

        Known approximations: only one variable per statement is
        annotated, and for statements whose expression calls a function
        the annotation is stamped at the boundary (before the callee
        runs), which can over-report concurrency for such statements —
        conservative in the "may flag a questionable pair" direction,
        never hiding a real race on the annotated variable.
        """
        cached = getattr(stmt, "_boundary_fx", None)
        if cached is not None:
            return cached
        from ..core.effects import Access as AccessEffect
        from ..core.effects import AccessKind
        label = _stmt_label(stmt)
        effect: Effect = Pause(label)
        if isinstance(stmt, Assign) and stmt.name in self.info.globals:
            effect = AccessEffect(stmt.name, AccessKind.WRITE, label)
        else:
            for var in _direct_vars(stmt):
                if var in self.info.globals:
                    effect = AccessEffect(var, AccessKind.READ, label)
                    break
        stmt._boundary_fx = effect
        return effect

    def _exec_stmt(self, rs: _RunState, stmt: Stmt, env: _Env,
                   ctx: _TaskCtx) -> Iterator[Effect]:
        if self._needs_boundary(stmt):
            yield self._boundary_effect(stmt)  # statement boundary

        if isinstance(stmt, Assign):
            value = yield from self._eval(rs, stmt.value, env, ctx)
            env.assign(stmt.name, value)
            return
        if isinstance(stmt, FieldAssign):
            obj = yield from self._eval(rs, stmt.obj, env, ctx)
            if not isinstance(obj, Instance):
                raise PseudoRuntimeError(
                    f"line {stmt.line}: field assignment on non-object {obj!r}")
            value = yield from self._eval(rs, stmt.value, env, ctx)
            obj.fields[stmt.field_name] = value
            return
        if isinstance(stmt, PrintStmt):
            value = yield from self._eval(rs, stmt.value, env, ctx)
            text = format_value(value)
            yield Emit(text + "\n" if stmt.newline else text)
            return
        if isinstance(stmt, IfStmt):
            for cond, body in stmt.branches:
                test = yield from self._eval(rs, cond, env, ctx)
                if test:
                    yield from self._exec_stmts(rs, body, env, ctx)
                    return
            yield from self._exec_stmts(rs, stmt.else_body, env, ctx)
            return
        if isinstance(stmt, WhileStmt):
            first = True
            while True:
                if not first:
                    # loop back-edge is a statement boundary (and keeps
                    # spin loops preemptible)
                    yield Pause(f"L{stmt.line}:while")
                first = False
                test = yield from self._eval(rs, stmt.condition, env, ctx)
                if not test:
                    return
                yield from self._exec_stmts(rs, stmt.body, env, ctx)
            return
        if isinstance(stmt, ParaBlock):
            tasks = []
            for arm in stmt.arms:
                arm_ctx = _TaskCtx()
                gen = self._exec_arm(rs, arm, env, arm_ctx)
                task = yield Spawn(gen, name=_stmt_label(arm))
                tasks.append(task)
            for task in tasks:
                yield Join(task)
            return
        if isinstance(stmt, ExcAccBlock):
            monitor = rs.monitors[stmt.group]
            yield Acquire(monitor)
            ctx.monitors.append(monitor)
            try:
                yield from self._exec_stmts(rs, stmt.body, env, ctx)
            finally:
                ctx.monitors.pop()
                yield Release(monitor)
            return
        if isinstance(stmt, WaitStmt):
            monitor = self._current_monitor(ctx, stmt.line, "WAIT()")
            yield Wait(monitor)
            return
        if isinstance(stmt, NotifyStmt):
            monitor = self._current_monitor(ctx, stmt.line, "NOTIFY()")
            # paper semantics: "once a NOTIFY() function is executed, all
            # WAIT() functions finish their execution" — broadcast
            yield Notify(monitor, all=True)
            return
        if isinstance(stmt, SendStmt):
            message = yield from self._eval(rs, stmt.message, env, ctx)
            receiver = yield from self._eval(rs, stmt.receiver, env, ctx)
            if not isinstance(receiver, Instance):
                raise PseudoRuntimeError(
                    f"line {stmt.line}: Send target {receiver!r} is not an "
                    f"object")
            if not isinstance(message, MessageValue):
                raise PseudoRuntimeError(
                    f"line {stmt.line}: Send payload {message!r} is not a "
                    f"MESSAGE value")
            # the paper's message-name is the message's protocol kind
            yield Send(receiver.mailbox, message, message_kind(message.name))
            return
        if isinstance(stmt, OnReceiving):
            yield from self._exec_receive_loop(rs, stmt, env, ctx)
            return
        if isinstance(stmt, ExprStmt):
            yield from self._eval(rs, stmt.expr, env, ctx)
            return
        if isinstance(stmt, ReturnStmt):
            value = None
            if stmt.value is not None:
                value = yield from self._eval(rs, stmt.value, env, ctx)
            raise _ReturnSignal(value)

        raise PseudoRuntimeError(
            f"line {stmt.line}: unsupported statement {type(stmt).__name__}")

    def _exec_arm(self, rs: _RunState, arm: Stmt, env: _Env,
                  ctx: _TaskCtx) -> Iterator[Effect]:
        """One PARA arm as a task body (swallows _ReturnSignal)."""
        try:
            yield from self._exec_stmt(rs, arm, env, ctx)
        except _ReturnSignal:
            pass

    @staticmethod
    def _current_monitor(ctx: _TaskCtx, line: int, what: str) -> SimMonitor:
        if not ctx.monitors:
            raise PseudoRuntimeError(
                f"line {line}: {what} outside any EXC_ACC block at run time")
        return ctx.monitors[-1]

    def _exec_receive_loop(self, rs: _RunState, stmt: OnReceiving, env: _Env,
                           ctx: _TaskCtx) -> Iterator[Effect]:
        instance = env.instance
        if instance is None:
            raise PseudoRuntimeError(
                f"line {stmt.line}: ON_RECEIVING with no receiving instance")
        arms = stmt.arms

        def matcher(msg: Any) -> bool:
            return isinstance(msg, MessageValue) and any(
                a.msg_name == msg.name and len(a.params) == len(msg.args)
                for a in arms)

        while True:
            msg = yield Receive(instance.mailbox, matcher)
            arm = next(a for a in arms
                       if a.msg_name == msg.name
                       and len(a.params) == len(msg.args))
            for param, value in zip(arm.params, msg.args):
                env.assign(param, value) if env.locals is None else \
                    env.locals.__setitem__(param, value)
            yield from self._exec_stmts(rs, arm.body, env, ctx)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def _eval(self, rs: _RunState, expr: Any, env: _Env,
              ctx: _TaskCtx) -> Iterator[Effect]:
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, Var):
            return env.lookup(expr.name, expr.line)
        if isinstance(expr, Unary):
            operand = yield from self._eval(rs, expr.operand, env, ctx)
            if expr.op == "NOT":
                return not operand
            if expr.op == "-":
                return -operand
            raise PseudoRuntimeError(f"line {expr.line}: bad unary {expr.op}")
        if isinstance(expr, Binary):
            return (yield from self._eval_binary(rs, expr, env, ctx))
        if isinstance(expr, MessageExpr):
            args = []
            for a in expr.args:
                args.append((yield from self._eval(rs, a, env, ctx)))
            return MessageValue(expr.msg_name, tuple(args))
        if isinstance(expr, NewExpr):
            cls = self.program.classes.get(expr.class_name)
            if cls is None:
                raise PseudoRuntimeError(
                    f"line {expr.line}: unknown class {expr.class_name!r}")
            instance = Instance(cls, policy=self.mailbox_policy)
            if expr.args:
                init = cls.methods.get("init")
                if init is None:
                    raise PseudoRuntimeError(
                        f"line {expr.line}: class {cls.name!r} takes no "
                        f"constructor arguments (no DEFINE init)")
                args = []
                for a in expr.args:
                    args.append((yield from self._eval(rs, a, env, ctx)))
                yield from self._call_function(rs, init, args, env, ctx,
                                               instance=instance)
            return instance
        if isinstance(expr, Call):
            fn = self.program.functions.get(expr.name)
            if fn is None:
                raise PseudoRuntimeError(
                    f"line {expr.line}: undefined function {expr.name!r}")
            args = []
            for a in expr.args:
                args.append((yield from self._eval(rs, a, env, ctx)))
            return (yield from self._call_function(rs, fn, args, env, ctx,
                                                   instance=env.instance))
        if isinstance(expr, MethodCall):
            # field read sneaks in as a MethodCall subclass (_FieldRef)
            if getattr(expr, "field_name", None) is not None and not expr.method:
                obj = yield from self._eval(rs, expr.obj, env, ctx)
                if not isinstance(obj, Instance):
                    raise PseudoRuntimeError(
                        f"line {expr.line}: field read on non-object {obj!r}")
                try:
                    return obj.fields[expr.field_name]
                except KeyError:
                    raise PseudoRuntimeError(
                        f"line {expr.line}: {obj!r} has no field "
                        f"{expr.field_name!r}") from None
            obj = yield from self._eval(rs, expr.obj, env, ctx)
            if not isinstance(obj, Instance):
                raise PseudoRuntimeError(
                    f"line {expr.line}: method call on non-object {obj!r}")
            method = obj.class_def.methods.get(expr.method)
            if method is None:
                raise PseudoRuntimeError(
                    f"line {expr.line}: {obj.class_name} has no method "
                    f"{expr.method!r}")
            args = []
            for a in expr.args:
                args.append((yield from self._eval(rs, a, env, ctx)))
            if method.has_receive():
                # actor behaviour: start the message loop as a daemon task
                gen = self._method_task(rs, obj, method, args)
                yield Spawn(gen, name=f"{obj!r}.{method.name}", daemon=True)
                return None
            return (yield from self._call_function(rs, method, args, env,
                                                   ctx, instance=obj))
        raise PseudoRuntimeError(
            f"unsupported expression {type(expr).__name__}")

    def _eval_binary(self, rs: _RunState, expr: Binary, env: _Env,
                     ctx: _TaskCtx) -> Iterator[Effect]:
        if expr.op == "AND":
            left = yield from self._eval(rs, expr.left, env, ctx)
            if not left:
                return False
            right = yield from self._eval(rs, expr.right, env, ctx)
            return bool(right)
        if expr.op == "OR":
            left = yield from self._eval(rs, expr.left, env, ctx)
            if left:
                return True
            right = yield from self._eval(rs, expr.right, env, ctx)
            return bool(right)
        left = yield from self._eval(rs, expr.left, env, ctx)
        right = yield from self._eval(rs, expr.right, env, ctx)
        try:
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "/":
                # pseudocode division: integer / integer stays exact when even
                result = left / right
                if isinstance(left, int) and isinstance(right, int) \
                        and left % right == 0:
                    return left // right
                return result
            if expr.op == "%":
                return left % right
            if expr.op == "==":
                return left == right
            if expr.op == "!=":
                return left != right
            if expr.op == "<":
                return left < right
            if expr.op == "<=":
                return left <= right
            if expr.op == ">":
                return left > right
            if expr.op == ">=":
                return left >= right
        except TypeError as exc:
            raise PseudoRuntimeError(
                f"line {expr.line}: bad operands for {expr.op!r}: "
                f"{left!r}, {right!r}") from exc
        raise PseudoRuntimeError(f"line {expr.line}: bad operator {expr.op!r}")

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------
    def _call_function(self, rs: _RunState, fn: FunctionDef, args: list,
                       env: _Env, ctx: _TaskCtx,
                       instance: Optional[Instance]) -> Iterator[Effect]:
        if len(args) != len(fn.params):
            raise PseudoRuntimeError(
                f"{fn.name}() takes {len(fn.params)} argument(s), got "
                f"{len(args)}")
        callee_env = _Env(env.globals, dict(zip(fn.params, args)), instance)
        try:
            yield from self._exec_stmts(rs, fn.body, callee_env, ctx)
        except _ReturnSignal as ret:
            return ret.value
        return None

    def _method_task(self, rs: _RunState, instance: Instance,
                     method: FunctionDef, args: list) -> Iterator[Effect]:
        """Body of a spawned actor-behaviour task."""
        env = _Env(rs.globals, dict(zip(method.params, args)), instance)
        ctx = _TaskCtx()
        try:
            yield from self._exec_stmts(rs, method.body, env, ctx)
        except _ReturnSignal:
            pass


class PseudoResult:
    """Outcome of a single pseudocode execution."""

    def __init__(self, trace: Trace, globals: dict[str, Any]):
        self.trace = trace
        self.globals = globals

    @property
    def outcome(self) -> str:
        return self.trace.outcome

    def output_text(self) -> str:
        return self.trace.output_str()

    def output_tokens(self) -> list[str]:
        return self.output_text().split()

    def __repr__(self) -> str:
        return (f"<PseudoResult {self.outcome} output={self.output_text()!r} "
                f"globals={self.globals!r}>")


def compile_program(source: str,
                    mailbox_policy: DeliveryPolicy = DeliveryPolicy.ARBITRARY
                    ) -> Runtime:
    """Parse + analyze pseudocode text into an executable Runtime."""
    return Runtime(parse(source), mailbox_policy=mailbox_policy)


def interpret(source: str, policy: Optional[SchedulingPolicy] = None,
              mailbox_policy: DeliveryPolicy = DeliveryPolicy.ARBITRARY,
              **sched_kw: Any) -> PseudoResult:
    """One-shot: parse, analyze and execute pseudocode text."""
    return compile_program(source, mailbox_policy).run(policy, **sched_kw)
