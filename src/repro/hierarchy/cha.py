"""Class-hierarchy analysis: subtype queries and virtual dispatch.

All queries are precomputed or memoised; the corpus apps have hundreds
to thousands of classes and the constraint-graph construction issues a
subtype query per call site. The hierarchy is immutable after
construction, so memo entries never go stale; queries return tuples and
frozensets so that no caller can corrupt a later answer.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.ir.program import Clazz, Method, Program


class ClassHierarchy:
    """Subtype relations and CHA dispatch over a :class:`Program`.

    Interfaces participate: ``is_subtype(c, i)`` is true when class
    ``c`` transitively implements interface ``i``.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self._supertypes: Dict[str, FrozenSet[str]] = {}
        # Class -> its subtypes in program class order (a dict used as
        # an ordered set), so that dispatch order does not depend on
        # the string hash seed.
        self._subtypes: Dict[str, Dict[str, None]] = {}
        # Memos of the per-class queries below.
        self._subtypes_memo: Dict[str, FrozenSet[str]] = {}
        self._chains: Dict[str, Tuple[str, ...]] = {}
        self._listener_interfaces: Dict[str, Tuple[str, ...]] = {}
        self._dispatch_cache: Dict[Tuple[str, str, int], Optional[Method]] = {}
        # (sub, sup) -> bool memo for is_subtype; the hierarchy is
        # immutable after construction so entries never go stale.
        self._subtype_cache: Dict[Tuple[str, str], bool] = {}
        self.subtype_cache_hits = 0
        self.subtype_cache_misses = 0
        for name in program.classes:
            supers = self._compute_supertypes(name)
            self._supertypes[name] = supers
            for s in supers:
                self._subtypes.setdefault(s, {})[name] = None

    def _compute_supertypes(self, name: str) -> FrozenSet[str]:
        result: Set[str] = set()
        work: List[str] = [name]
        while work:
            current = work.pop()
            if current in result:
                continue
            result.add(current)
            c = self.program.clazz(current)
            if c is None:
                continue
            if c.superclass is not None:
                work.append(c.superclass)
            work.extend(c.interfaces)
        return frozenset(result)

    # -- queries -----------------------------------------------------------

    def supertypes(self, name: str) -> FrozenSet[str]:
        """All transitive supertypes of ``name``, including itself."""
        result = self._supertypes.get(name)
        if result is None:
            result = self._compute_supertypes(name)
            self._supertypes[name] = result
        return result

    def subtypes(self, name: str) -> FrozenSet[str]:
        """All transitive subtypes of ``name``, including itself."""
        result = self._subtypes_memo.get(name)
        if result is None:
            result = self._subtypes_memo[name] = frozenset(
                self._subtypes.get(name, ())
            ) | {name}
        return result

    def is_subtype(self, sub: str, sup: str) -> bool:
        """Is ``sub`` the same as or a transitive subtype of ``sup``?

        Memoised per (sub, sup): the solver's cast filtering and value
        classification issue the same handful of queries millions of
        times on large apps."""
        if sub == sup:
            return True
        key = (sub, sup)
        cached = self._subtype_cache.get(key)
        if cached is not None:
            self.subtype_cache_hits += 1
            return cached
        self.subtype_cache_misses += 1
        result = sup in self.supertypes(sub)
        self._subtype_cache[key] = result
        return result

    def superclass_chain(self, name: str) -> Tuple[str, ...]:
        """``name`` and its superclasses, most-derived first."""
        cached = self._chains.get(name)
        if cached is not None:
            return cached
        chain: List[str] = []
        current: Optional[str] = name
        seen: Set[str] = set()
        while current is not None and current not in seen:
            seen.add(current)
            chain.append(current)
            c = self.program.clazz(current)
            current = c.superclass if c is not None else None
        result = self._chains[name] = tuple(chain)
        return result

    # -- dispatch ----------------------------------------------------------

    def lookup(self, receiver_class: str, name: str, arity: int) -> Optional[Method]:
        """Resolve a virtual call for a receiver of *exact* run-time type.

        Walks the superclass chain from ``receiver_class`` upward, like
        JVM method resolution.
        """
        key = (receiver_class, name, arity)
        if key in self._dispatch_cache:
            return self._dispatch_cache[key]
        result: Optional[Method] = None
        for cname in self.superclass_chain(receiver_class):
            c = self.program.clazz(cname)
            if c is None:
                continue
            m = c.method(name, arity)
            if m is not None and not m.is_abstract:
                result = m
                break
        self._dispatch_cache[key] = result
        return result

    def app_callback(
        self, class_name: Optional[str], name: Optional[str], arities: Iterable[int]
    ) -> Optional[Method]:
        """The application method the framework calls back on an object
        of ``class_name``: the first of ``arities`` that resolves, or
        None when none does or it resolves to platform code."""
        for arity in arities if class_name and name else ():
            method = self.lookup(class_name, name, arity)
            if method is not None:
                owner = self.program.clazz(method.class_name)
                return None if owner is None or owner.is_platform else method
        return None

    def cha_targets(
        self, declared_class: str, name: str, arity: int
    ) -> List[Method]:
        """The methods a virtual call could dispatch to under CHA from a
        receiver of an application class.

        Considers every concrete application subtype of the declared
        receiver class, in program class order, and deduplicates the
        resolved targets. A receiver of a platform class dispatches only
        to platform code, which the analysis models as operations, so
        platform subtypes are skipped.
        """
        targets: Dict[Tuple[str, str, int], Method] = {}
        for sub in self._subtypes.get(declared_class, ()):
            c = self.program.clazz(sub)
            if c is None or c.is_interface or c.is_platform:
                continue
            m = self.lookup(sub, name, arity)
            if m is not None:
                targets[(m.class_name, m.name, len(m.param_names))] = m
        return list(targets.values())

    # -- convenience class tests --------------------------------------------

    def is_activity_class(self, name: str) -> bool:
        return self.is_subtype(name, "android.app.Activity")

    def is_dialog_class(self, name: str) -> bool:
        return self.is_subtype(name, "android.app.Dialog")

    def listener_interfaces_of(self, name: str) -> Tuple[str, ...]:
        """Modelled listener interfaces implemented by class ``name``."""
        cached = self._listener_interfaces.get(name)
        if cached is None:
            from repro.platform.events import listener_interfaces

            supers = self.supertypes(name)
            cached = tuple(i for i in listener_interfaces() if i in supers)
            self._listener_interfaces[name] = cached
        return cached

    def is_listener_class(self, name: str) -> bool:
        return bool(self.listener_interfaces_of(name))
