"""Spans and counters around the calls into each walgebra layer.

Installed inside a benchmark child after ``walgebra.cli`` is imported;
no file of the package changes.  Coarse public calls get spans (name,
start, end, parent span, operation id); the hot small calls (the
``HbarPoly`` methods, ``algebra._mono_product`` and
``modules.right_mul_gen``) get counters only.  Spans are kept in memory
and written out by ``dump()`` when the child exits.

The layers import names from each other directly (``from .modules
import fuse``), so a wrapper replaces every binding of the original in
every ``walgebra.*`` module namespace, and ``unwrapped()`` scans those
namespaces for any original left behind.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter

from walgebra import (  # walgebra.cli imports every layer
    algebra,
    bk,
    checks,
    cli,
    geometry,
    hbar,
    modules,
    pyramid,
    tensorj,
    whittaker,
)

# (module, function) pairs that get a span named "<layer>.<function>";
# methods are written "Class.method".
SPANS = (
    (algebra, "AlgebraElement.__mul__"),
    (algebra, "AlgebraElement.to_json"),
    (algebra, "normal_order_word"),
    (bk, "truncated_t"),
    (bk, "chain_sum"),
    (modules, "fuse"),
    (modules, "transport"),
    (modules, "right_act"),
    (modules, "reduce_mod_m_psi"),
    (modules, "ModuleElement.coefficient_at"),
    (modules, "ad_action"),
    (whittaker, "build_basis"),
    (whittaker, "canonicalize"),
    (geometry, "verify_inverse"),
    (geometry, "jc_recursive"),
    (geometry, "jc_closed_form"),
    (tensorj, "compute_J"),
    (tensorj, "compare_semiclassical"),
    (tensorj, "fuse_power_J"),
    (checks, "engine_health"),
    (checks, "generator_identity_suite"),
    (checks, "whittaker_suite"),
    (checks, "recursion_suite"),
    (checks, "omega_suite"),
    (checks, "j_suite"),
    (checks, "fusion_suite"),
    (cli, "_emit"),
    (cli, "cmd_compute_t"),
    (cli, "cmd_compute_j"),
    (cli, "cmd_selftest"),
)

# functions that only get counters (see Tracer.install for what each counts)
COUNTED = (
    (hbar, "HbarPoly.__init__"),
    (hbar, "HbarPoly.__add__"),
    (hbar, "HbarPoly.__mul__"),
    (hbar, "HbarPoly.scale"),
    (hbar, "HbarPoly.shift"),
    (algebra, "_mono_product"),
    (algebra, "GeneratorOrder.__init__"),
    (pyramid, "Pyramid.__init__"),
    (pyramid, "Pyramid.default_order"),
    (modules, "right_mul_gen"),
    (whittaker, "l_constant_part"),
)


def _resolve(module, path):
    owner = module
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name] if outer else getattr(owner, name)


def _walgebra_namespaces():
    """Every module namespace and class dict of the walgebra package."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "walgebra" or mod_name.startswith("walgebra.")):
            continue
        yield mod, vars(mod)
        for val in list(vars(mod).values()):
            if isinstance(val, type) and val.__module__.startswith("walgebra"):
                yield val, vars(val)


class _JsonProxy:
    """Stands in for the ``json`` module inside ``walgebra.cli`` so that
    the command's own ``json.dump`` to stdout is timed as emission."""

    def __init__(self, dump):
        self.dump = dump

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self, op_id: int):
        self.op_id = op_id
        self.names: list = []
        self.spans: list = []  # [name index, start, end, parent record]
        self.orders: list = []  # every GeneratorOrder built, for its pair cache
        self._local = threading.local()
        self._lock = threading.Lock()
        self._all_counts: list = []
        self._originals: dict = {}  # id(original) -> (name, original)

    def counts(self) -> Counter:
        """This thread's counters (merged across threads by dump())."""
        try:
            return self._local.counts
        except AttributeError:
            c = self._local.counts = Counter()
            with self._lock:
                self._all_counts.append(c)
            return c

    def span(self, name: str, fn, before=None, after=None):
        """Wrap fn in a span.  before(counts, args) and
        after(counts, args, result) may add counters."""
        spans, local, clock, counts = self.spans, self._local, time.perf_counter, self.counts
        idx = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(counts(), args)
            parent = getattr(local, "cur", None)
            rec = [idx, clock(), 0.0, parent]
            spans.append(rec)
            local.cur = rec
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                local.cur = parent
            if after is not None:
                after(counts(), args, result)
            return result

        return wrapper

    def _replace(self, module, path: str, make) -> None:
        """Bind make(original) wherever the original is bound."""
        owner, name, orig = _resolve(module, path)
        wrapper = make(orig)
        self._originals[id(orig)] = ("%s.%s" % (module.__name__, path), orig)
        if owner is not module:  # a method: the class is shared by every caller
            setattr(owner, name, wrapper)
            return
        for target, ns in list(_walgebra_namespaces()):
            for key, val in list(ns.items()):
                if val is orig:
                    setattr(target, key, wrapper)

    def install(self) -> None:
        counts = self.counts
        memo = bk._memo
        hooks = {
            "bk.truncated_t": (
                lambda c, a: c.update(
                    {"bk.memo_hits": (a[0].heights,) + tuple(a[1:6]) in memo}
                ),
                None,
            ),
            "bk.chain_sum": (None, lambda c, a, r: c.update({"bk.chains": len(r)})),
            "modules.reduce_mod_m_psi": (None, _after_reduce),
            "modules.fuse": (None, lambda c, a, r: _peak(c, len(r.terms))),
        }
        for module, path in SPANS:
            name = "%s.%s" % (module.__name__.rsplit(".", 1)[1], path.rsplit(".", 1)[-1].strip("_"))
            before, after = hooks.get(name, (None, None))
            self._replace(module, path, lambda f, n=name, b=before, a=after: self.span(n, f, b, a))

        def init(orig):
            def wrapper(self, coeffs=()):
                orig(self, coeffs)
                c = counts()
                bits = c["max.hbar.max_coeff_bits"]
                for q in self.coeffs:
                    if q.denominator != 1:
                        c["hbar.nonint_coeffs"] += 1
                    b = q.numerator.bit_length()
                    if b > bits:
                        bits = b
                c["max.hbar.max_coeff_bits"] = bits

            return wrapper

        def add(orig):
            def wrapper(self, other):
                counts()["hbar.add_calls"] += 1
                return orig(self, other)

            return wrapper

        def mul(orig):
            def wrapper(self, other):
                c = counts()
                c["hbar.mul_calls"] += 1
                c["hbar.coeff_mults"] += len(self.coeffs) * len(other.coeffs)
                return orig(self, other)

            return wrapper

        def scale_shift(orig):
            def wrapper(self, arg):
                counts()["hbar.scale_shift_calls"] += 1
                return orig(self, arg)

            return wrapper

        def mono_product(orig):
            def wrapper(order, ma, mb):
                c = counts()
                c["algebra.pair_lookups"] += 1
                # decided from this call's own key: other threads may fill
                # the shared cache while this call runs
                if (ma, mb) not in order._pair_cache:
                    c["algebra.pair_misses"] += 1
                return orig(order, ma, mb)

            return wrapper

        def order_init(orig):
            def wrapper(self, *args, **kwargs):
                orig(self, *args, **kwargs)
                self_orders.append(self)

            return wrapper

        def pyramid_init(orig):
            def wrapper(self, heights):
                counts()["pyramid.instances"] += 1
                orig(self, heights)

            return wrapper

        def default_order(orig):
            def wrapper(self):
                built = self._order is None
                order = orig(self)
                if built:
                    counts()["pyramid.orders_built"] += 1
                return order

            return wrapper

        def right_mul_gen(orig):
            def wrapper(m, g):
                c = counts()
                c["modules.right_mul_gen_calls"] += 1
                out = orig(m, g)
                _peak(c, len(out.terms))
                return out

            return wrapper

        def l_constant_part(orig):
            def wrapper(x, p):
                counts()["whittaker.l_constant_part_calls"] += 1
                return orig(x, p)

            return wrapper

        self_orders = self.orders
        makers = (init, add, mul, scale_shift, scale_shift, mono_product, order_init,
                  pyramid_init, default_order, right_mul_gen, l_constant_part)
        for (module, path), make in zip(COUNTED, makers):
            self._replace(module, path, lambda f, m=make: functools.wraps(f)(m(f)))

        # thunks may run on the check pool's threads: give them the caller's span
        local = self._local

        def run_checks(orig):
            def wrapper(jobs):
                parent = getattr(local, "cur", None)

                def adopt(thunk):
                    def run():
                        prev = getattr(local, "cur", None)
                        local.cur = parent
                        try:
                            return thunk()
                        finally:
                            local.cur = prev

                    return run

                return orig([(name, adopt(thunk)) for name, thunk in jobs])

            return functools.wraps(orig)(wrapper)

        self._replace(checks, "_run_checks", run_checks)
        cli.json = _JsonProxy(self.span("cli.json_dump", json.dump))
        left = self.unwrapped()
        if left:
            raise RuntimeError("unwrapped originals still bound: %s" % ", ".join(left))

    def unwrapped(self) -> list:
        """Traced originals still bound in a walgebra namespace."""
        left = set()
        for owner, ns in _walgebra_namespaces():
            for key, val in ns.items():
                hit = self._originals.get(id(val))
                if hit is not None and hit[1] is val:
                    left.add("%s as %s.%s" % (hit[0], owner.__name__, key))
        return sorted(left)

    def dump(self) -> dict:
        total: Counter = Counter()
        for c in list(self._all_counts):
            for key, val in c.items():
                total[key] = max(total[key], val) if key.startswith("max.") else total[key] + val
        index = {id(rec): n for n, rec in enumerate(self.spans)}
        return {
            "op": self.op_id,
            "names": self.names,
            "spans": [
                [name, start, end, -1 if parent is None else index[id(parent)], self.op_id]
                for name, start, end, parent in self.spans
            ],
            "counters": dict(total),
            "pair_cache_entries": sum(len(o._pair_cache) for o in self.orders),
        }


def _after_reduce(c: Counter, args, result) -> None:
    c["modules.reduce_terms_in"] += len(args[0].terms)
    c["modules.reduce_terms_out"] += len(result.terms)
    _peak(c, len(args[0].terms))


def _peak(c: Counter, n: int) -> None:
    if n > c["max.modules.peak_terms"]:
        c["max.modules.peak_terms"] = n
