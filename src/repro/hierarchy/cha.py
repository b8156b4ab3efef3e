"""Class-hierarchy analysis: subtype queries and virtual dispatch.

All queries are memoised; the corpus apps have hundreds to thousands of
classes and the constraint-graph construction issues a subtype query
per call site. Building a hierarchy records only each class's direct
subtypes, so it is linear in the program. The one subtype table holds,
for each class some query asked about, its subtypes in program class
order: ``is_subtype(c, s)`` and CHA dispatch on ``s`` both read the
entry of ``s``, and each entry is a walk down ``s``'s subtree, so even
a deep ``extends`` chain costs linear time. The hierarchy is immutable
after construction, so memo entries never go stale; queries return
tuples and frozensets so that no caller can corrupt a later answer.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.ir.program import Method, Program


class ClassHierarchy:
    """Subtype relations and CHA dispatch over a :class:`Program`.

    Interfaces participate: ``is_subtype(c, i)`` is true when class
    ``c`` transitively implements interface ``i``.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        # Class -> the program classes that directly extend or implement
        # it, and each program class's position in program class order,
        # which dispatch follows so that it does not depend on the
        # string hash seed.
        self._children: Dict[str, List[str]] = {}
        self._position: Dict[str, int] = {}
        for position, (name, c) in enumerate(program.classes.items()):
            self._position[name] = position
            if c.superclass is not None:
                self._children.setdefault(c.superclass, []).append(name)
            for interface in c.interfaces:
                self._children.setdefault(interface, []).append(name)
        # The subtype table: class -> its program subtypes (itself
        # included), in program class order, as a dict used as an
        # ordered set.
        self._subtypes: Dict[str, Dict[str, None]] = {}
        # Memos of the per-class queries below.
        self._subtypes_memo: Dict[str, FrozenSet[str]] = {}
        self._chains: Dict[str, Tuple[str, ...]] = {}
        self._listener_interfaces: Dict[str, Tuple[str, ...]] = {}
        self._dispatch_cache: Dict[Tuple[str, str, int], Optional[Method]] = {}

    # -- queries -----------------------------------------------------------

    def _program_subtypes(self, name: str) -> Dict[str, None]:
        """The program classes that are ``name`` or transitively extend
        or implement it, in program class order: ``name``'s entry of the
        subtype table, walked down its subtree on first use."""
        result = self._subtypes.get(name)
        if result is None:
            found = {name}
            work = [name]
            while work:
                for child in self._children.get(work.pop(), ()):
                    if child not in found:
                        found.add(child)
                        work.append(child)
            position = self._position
            ordered = sorted((c for c in found if c in position), key=position.__getitem__)
            result = self._subtypes[name] = dict.fromkeys(ordered)
        return result

    def subtypes(self, name: str) -> FrozenSet[str]:
        """All transitive subtypes of ``name``, including itself."""
        result = self._subtypes_memo.get(name)
        if result is None:
            result = self._subtypes_memo[name] = frozenset(self._program_subtypes(name)) | {
                name
            }
        return result

    def is_subtype(self, sub: str, sup: str) -> bool:
        """Is ``sub`` the same as or a transitive subtype of ``sup``?

        One lookup in ``sup``'s entry of the subtype table: the solver's
        cast filtering and value classification issue the same handful
        of queries millions of times on large apps."""
        return sub == sup or sub in self._program_subtypes(sup)

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
        JVM method resolution, and records the answer for every class
        it passes, so the walk stops at the first class already
        resolved.
        """
        cache = self._dispatch_cache
        key = (receiver_class, name, arity)
        if key in cache:
            return cache[key]
        walked: List[Tuple[str, str, int]] = []
        seen: Set[str] = set()
        result: Optional[Method] = None
        current: Optional[str] = receiver_class
        while current is not None and current not in seen:
            key = (current, name, arity)
            if key in cache:
                result = cache[key]
                break
            seen.add(current)
            walked.append(key)
            c = self.program.clazz(current)
            if c is None:
                break
            m = c.method(name, arity)
            if m is not None and not m.is_abstract:
                result = m
                break
            current = c.superclass
        for key in walked:
            cache[key] = result
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
        for sub in self._program_subtypes(declared_class):
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

            cached = tuple(i for i in listener_interfaces() if self.is_subtype(name, i))
            self._listener_interfaces[name] = cached
        return cached

    def is_listener_class(self, name: str) -> bool:
        return bool(self.listener_interfaces_of(name))
