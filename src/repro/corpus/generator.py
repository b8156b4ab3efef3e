"""Deterministic synthetic-app generator.

Realises an :class:`~repro.corpus.spec.AppSpec` as a complete
:class:`~repro.app.AndroidApp` whose *solved constraint graph* exhibits
the spec's Table 1 statistics exactly and whose Table 2 precision
averages approximate the spec's knobs.

How each knob is realised
=========================

**Structure.** ``ops_inflate`` inflation sites are split between
activities (one ``setContentView(int)`` each — ``Inflate2``) and
``makePanel`` helper methods (``LayoutInflater.inflate`` —
``Inflate1``). Each site statically inflates one layout; the layout
sizes are solved so the total number of inflated view nodes equals
``views_inflated`` exactly. Layouts beyond the number of inflation
sites are "dead" (declared but never inflated — common in real apps)
and absorb leftover view ids.

**Receivers** (``recv_avg``). Every activity looks up one *target*
view in its own layout and uses it as the receiver of its unshared
operations (receiver sets of size 1). Imprecision is injected with the
classic shared-helper pattern the paper attributes XBMC's outlier to:
``c`` caller activities each pass a variable merging ``b`` of their own
found views into static helper methods hosting the shared operations,
whose receiver sets therefore have size ``m = c*b``. Under 1-call-site
contexts (``AnalysisOptions.call_site_context``) each helper context
sees only its caller's ``b`` views — ``recv_avg_ctx`` is the
irreducible part.

**Results** (``result_avg``). Selected activities declare ``r`` layout
nodes sharing one view id; a ``findViewById`` on that id returns all
``r`` — duplicate ids across *different* subtrees are legal in Android
and a real source of find-view imprecision.

**Parameters** (``param_avg``). Add-view call sites whose child
argument variable merges several view allocations.

**Listeners** (``listener_avg``). Set-listener call sites whose
argument merges several listener objects loaded from a registry of
static fields (exactly ``listeners`` allocation sites).

**Classes/methods.** After the functional classes are generated, filler
classes with small plain-Java methods (in two-level inheritance chains,
with cross-calls) pad the app to exactly ``classes`` / ``methods``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.app import AndroidApp
from repro.corpus.spec import AppSpec
from repro.gcpause import gc_paused
from repro.ir.builder import ClassBuilder, MethodBuilder, ProgramBuilder
from repro.platform.classes import container_classes, widget_leaf_classes
from repro.platform.events import EventKind, LISTENER_SPECS, ListenerSpec
from repro.resources.layout import LayoutNode, LayoutTree
from repro.resources.manifest import Manifest
from repro.resources.rtable import ResourceTable

VIEW = "android.view.View"
VIEW_GROUP = "android.view.ViewGroup"
FRAME_LAYOUT = "android.widget.FrameLayout"
LINEAR_LAYOUT = "android.widget.LinearLayout"
INFLATER = "android.view.LayoutInflater"

# Listener families usable for multi-listener merges must share one
# registration method; CLICK is the workhorse, like in real apps.
_CLICK_SPEC = next(s for s in LISTENER_SPECS if s.event is EventKind.CLICK)
_SINGLE_FAMILIES = [
    s
    for s in LISTENER_SPECS
    if s.event in (EventKind.LONG_CLICK, EventKind.TOUCH, EventKind.FOCUS_CHANGE)
]


def plan_multiplicities(count: int, target: float, cap: int = 9) -> List[int]:
    """``count`` integers >= 1 whose mean approximates ``target``.

    Extras are distributed round-robin with a per-item cap so the
    generated code stays realistic (no single statement merging dozens
    of objects).
    """
    if count <= 0:
        return []
    total = round(count * target)
    extras = max(0, total - count)
    plan = [1] * count
    i = 0
    while extras > 0:
        if plan[i % count] < cap:
            plan[i % count] += 1
            extras -= 1
        i += 1
        if i > count * cap:  # everything at cap
            break
    return plan


def _plan_sharing(
    pop: int, target: float, ctx_target: float
) -> Tuple[int, int, int]:
    """Choose (shared-op count S, callers c, views-per-caller b).

    Shared ops get receiver sets of size ``m = c*b``; the remaining
    ``pop - S`` ops have singleton receivers, so the population average
    is ``(S*m + pop - S) / pop ≈ target``.
    """
    if pop <= 0 or target <= 1.001:
        return 0, 1, 1
    b = max(1, round(ctx_target))
    m = max(2, round(2 * target))
    c = max(2 if b == 1 else 1, round(m / b))
    m = c * b
    if m < 2:
        c = 2
        m = c * b
    shared = round(pop * (target - 1.0) / (m - 1))
    shared = max(1, min(shared, pop))
    return shared, c, b


@dataclass
class _LayoutPlan:
    """Node layout of one generated (inflated) layout."""

    name: str
    site_count: int
    size: int = 1
    # id names for dedicated roles; None = role absent in this layout
    target_id: Optional[str] = None
    inner_id: Optional[str] = None
    feed_ids: List[str] = field(default_factory=list)
    shared_inner_under_feed0: bool = False
    # Duplicate-id groups: (id name, node count) — each group feeds one
    # find-view op whose result set has `node count` elements.
    dup_groups: List[Tuple[str, int]] = field(default_factory=list)

    def min_size(self) -> int:
        size = 1  # root
        if self.target_id is not None:
            size += 2 if self.inner_id is not None else 1
        size += len(self.feed_ids)
        if self.shared_inner_under_feed0:
            size += 1
        size += sum(count for _name, count in self.dup_groups)
        return size


class _Generator:
    def __init__(self, spec: AppSpec) -> None:
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.pb = ProgramBuilder()
        self.resources = ResourceTable()
        self.manifest = Manifest(package=self._pkg())
        self.method_count = 0
        self.class_count = 0

    def _pkg(self) -> str:
        return "gen." + "".join(ch for ch in self.spec.name.lower() if ch.isalnum())

    # -- top level -----------------------------------------------------------

    def generate(self) -> AndroidApp:
        spec = self.spec
        self.n_act = max(1, min(spec.ops_inflate // 2 or 1, spec.ops_inflate))
        self.n_inflate1 = spec.ops_inflate - self.n_act

        self._plan_ops()
        self._plan_layouts()
        self._emit_layouts()
        self._emit_listener_registry()
        if self.shared_plan["total"] > 0:
            self._emit_shared_helper()
        self._emit_activities()
        self._register_extra_ids()
        self._emit_filler()

        program = self.pb.build()
        app = AndroidApp(
            name=spec.name,
            program=program,
            resources=self.resources,
            manifest=self.manifest,
        )
        return app

    # -- operation planning ------------------------------------------------------

    def _plan_ops(self) -> None:
        spec = self.spec
        # Reserve FindView2 feeders: one target lookup per activity.
        fv_budget = spec.ops_findview
        feeders_unshared = min(self.n_act, fv_budget)
        fv_budget -= feeders_unshared
        self.n_feeder_acts = feeders_unshared

        # Sharing geometry (callers c, feeder views per caller b) is
        # target-driven; the shared-op count S is fixed afterwards
        # against the *actual* receiver population.
        needs_sharing = spec.recv_avg > 1.001
        _s, c, b = _plan_sharing(1, spec.recv_avg, spec.recv_avg_ctx)
        self.callers = min(c, self.n_act) if needs_sharing else 0
        self.feeds_per_caller = b if needs_sharing else 0
        if needs_sharing and self.callers < c:
            # Fewer activities than planned callers: keep m by raising b.
            self.feeds_per_caller = max(1, round(c * b / self.callers))
        shared_feeders = min(self.callers * self.feeds_per_caller, fv_budget)
        fv_budget -= shared_feeders
        if shared_feeders == 0:
            self.callers = 0
            self.feeds_per_caller = 0
            needs_sharing = False
        m_mult = self.callers * self.feeds_per_caller

        # Result-imprecision (duplicate-id) lookups, each searching a
        # distinct duplicated id so result sets stay independent.
        # Oracle-exact apps skip this mechanism: a duplicate id within
        # one hierarchy only ever returns its first match at run time,
        # so the static multi-view result would be unrealisable. Their
        # result multiplicity comes from per-caller duplicate subtrees
        # instead (see inner_callers below).
        res_extra = max(0, round((spec.result_avg - 1.0) * spec.ops_findview))
        if spec.oracle_exact:
            n_dup_ops = 0
        else:
            n_dup_ops = min(res_extra, fv_budget // 2, self.n_feeder_acts * 2)
            if spec.result_avg > 1.001:
                n_dup_ops = max(n_dup_ops, min(1, fv_budget))
        if n_dup_ops:
            dup_sizes = plan_multiplicities(n_dup_ops, 1 + (res_extra / n_dup_ops))
            self.dup_extras = [x - 1 for x in dup_sizes]
        else:
            self.dup_extras = []
        fv_budget -= n_dup_ops

        # Remaining findview budget becomes FindView1 ops.
        n_fv1 = fv_budget

        # Receiver population: exactly the ops whose receiver is a view.
        kind_pops = {
            "fv1": n_fv1,
            "av": spec.ops_addview,
            "sid": spec.ops_setid,
            "sl": spec.ops_setlistener,
        }
        pop_total = sum(kind_pops.values())
        if needs_sharing and pop_total > 0 and m_mult > 1:
            shared_total = round(pop_total * (spec.recv_avg - 1.0) / (m_mult - 1))
            shared_total = max(1, min(shared_total, pop_total))
        else:
            shared_total = 0

        # Shared add-view ops multiply the parameter metric by the
        # caller count; cap them by the parameter target.
        if self.callers > 1:
            # Each shared add-view op adds (callers - 1) extra parameter
            # instances; floor so the parameter target is not overshot.
            av_cap = int(
                (spec.param_avg - 1.0) * spec.ops_addview / (self.callers - 1)
            )
        else:
            av_cap = 0
        caps = {
            "fv1": kind_pops["fv1"],
            "av": min(kind_pops["av"], max(0, av_cap)),
            "sid": kind_pops["sid"],
            "sl": kind_pops["sl"],
        }
        shared_total = min(shared_total, sum(caps.values()))
        shared: Dict[str, int] = {}
        remaining = shared_total
        for key, kpop in kind_pops.items():
            take = min(caps[key], round(shared_total * (kpop / pop_total)) if pop_total else 0)
            shared[key] = take
            remaining -= take
        for key in ("sl", "fv1", "sid", "av"):
            while remaining > 0 and shared[key] < caps[key]:
                shared[key] += 1
                remaining -= 1
            while remaining < 0 and shared[key] > 0:
                shared[key] -= 1
                remaining += 1
        self.shared_plan = dict(shared)
        self.shared_plan["total"] = sum(shared.values())
        self.unshared_plan = {k: kind_pops[k] - shared[k] for k in kind_pops}
        if self.shared_plan["total"] == 0 and shared_feeders > 0:
            # Sharing was planned but capped away entirely: return the
            # reserved feeder lookups to the FindView1 budget.
            self.unshared_plan["fv1"] += shared_feeders
            self.callers = 0
            self.feeds_per_caller = 0

        # How many callers host the id searched by shared FindView1 ops.
        # For oracle-exact apps this realises the result-average target:
        # each shared lookup returns one view per hosting caller, and
        # all of them occur dynamically (the helper runs per caller).
        self.inner_callers = 1
        if spec.oracle_exact and self.shared_plan["fv1"] > 0 and res_extra > 0:
            self.inner_callers = min(
                max(self.callers, 1),
                1 + round(res_extra / self.shared_plan["fv1"]),
            )

        # Parameter multiplicities for unshared addview ops: each shared
        # add-view op's child argument merges one allocation per caller.
        shared_av_instances = shared["av"] * max(self.callers, 1)
        target_instances = round(spec.param_avg * spec.ops_addview)
        unshared_av = self.unshared_plan["av"]
        leftover = max(unshared_av, target_instances - shared_av_instances)
        self.av_param_plan = (
            plan_multiplicities(unshared_av, leftover / unshared_av)
            if unshared_av
            else []
        )

        # Listener multiplicities per set-listener op.
        self.sl_listener_plan = plan_multiplicities(
            spec.ops_setlistener, spec.listener_avg
        )

    # -- layout planning -----------------------------------------------------------

    def _plan_layouts(self) -> None:
        spec = self.spec
        n_inflated = min(spec.layout_ids, spec.ops_inflate)
        plans: List[_LayoutPlan] = []
        # One layout per activity first, then one per extra Inflate1
        # site; surplus sites pile onto the last layout ("list item"
        # layouts are inflated at many sites in real apps).
        for j in range(n_inflated):
            plans.append(_LayoutPlan(name=f"layout_{j}", site_count=1))
        extra_sites = spec.ops_inflate - n_inflated
        plans[-1].site_count += extra_sites

        # Assign roles. Activity j uses layout j (j < n_act <= n_inflated
        # is guaranteed because n_act <= ops_inflate and layouts wrap).
        self.act_layout_index = [min(j, n_inflated - 1) for j in range(self.n_act)]
        for j in range(min(self.n_act, n_inflated)):
            plan = plans[j]
            plan.target_id = "id_target"
            if self.unshared_plan["fv1"] > 0:
                plan.inner_id = "id_inner"
        for caller_index in range(self.callers):
            plan = plans[self.act_layout_index[caller_index]]
            plan.feed_ids = [f"id_feed{k}" for k in range(self.feeds_per_caller)]
            if caller_index < self.inner_callers and self.shared_plan["fv1"] > 0:
                plan.shared_inner_under_feed0 = True
        # Duplicate-id groups round-robin over feeder activities, one
        # distinct id name per group so each op's result set is exactly
        # its own group.
        self.dup_assignment: List[Tuple[int, str]] = []  # (activity, id name)
        for i, extra in enumerate(self.dup_extras):
            act = i % max(self.n_feeder_acts, 1)
            plan = plans[self.act_layout_index[act]]
            dup_name = f"id_dup{i}"
            plan.dup_groups.append((dup_name, 1 + extra))
            self.dup_assignment.append((act, dup_name))

        # Solve sizes: sum(site_count * size) == views_inflated.
        for plan in plans:
            plan.size = plan.min_size()
        total = sum(p.site_count * p.size for p in plans)
        if total > spec.views_inflated:
            raise ValueError(
                f"{spec.name}: views_inflated={spec.views_inflated} too small "
                f"for the operation plan (needs at least {total})"
            )
        slack = spec.views_inflated - total
        single = [p for p in plans if p.site_count == 1]
        if single:
            i = 0
            while slack > 0:
                single[i % len(single)].size += 1
                slack -= 1
                i += 1
        elif slack:
            only = plans[0]
            if slack % only.site_count:
                raise ValueError(
                    f"{spec.name}: cannot hit views_inflated exactly with a "
                    "single multi-site layout"
                )
            only.size += slack // only.site_count
        self.layout_plans = plans

        # Map each inflation site to its layout.
        sites: List[int] = []
        for j, plan in enumerate(plans):
            sites.extend([j] * plan.site_count)
        self.inflate1_layouts = sites[self.n_act:]

    def _emit_layouts(self) -> None:
        containers = container_classes()
        leaves = widget_leaf_classes()
        for j, plan in enumerate(self.layout_plans):
            root = LayoutNode(LINEAR_LAYOUT)
            remaining = plan.size - 1
            if plan.target_id is not None:
                target = root.add_child(LayoutNode(FRAME_LAYOUT, id_name=plan.target_id))
                remaining -= 1
                if plan.inner_id is not None:
                    target.add_child(
                        LayoutNode("android.widget.TextView", id_name=plan.inner_id)
                    )
                    remaining -= 1
            for k, feed_id in enumerate(plan.feed_ids):
                feed = root.add_child(LayoutNode(FRAME_LAYOUT, id_name=feed_id))
                remaining -= 1
                if k == 0 and plan.shared_inner_under_feed0:
                    feed.add_child(
                        LayoutNode("android.widget.TextView", id_name="id_shared_inner")
                    )
                    remaining -= 1
            for dup_name, count in plan.dup_groups:
                for _d in range(count):
                    root.add_child(
                        LayoutNode("android.widget.ImageView", id_name=dup_name)
                    )
                    remaining -= 1
            # Padding nodes: anonymous widgets (ids may be assigned later
            # from the view-id budget).
            while remaining > 0:
                cls = leaves[self.rng.randrange(len(leaves))]
                root.add_child(LayoutNode(cls))
                remaining -= 1
            self.resources.add_layout(LayoutTree(plan.name, root))
        # Dead layouts (declared, never inflated).
        for j in range(len(self.layout_plans), self.spec.layout_ids):
            root = LayoutNode(containers[j % len(containers)])
            root.add_child(LayoutNode(leaves[j % len(leaves)]))
            self.resources.add_layout(LayoutTree(f"layout_{j}", root))

    def _register_extra_ids(self) -> None:
        """Pad the view-id count to the spec: name anonymous layout
        nodes first, then register standalone ids (menu/dialog ids)."""
        spec = self.spec
        current = self.resources.view_id_count()
        deficit = spec.view_ids - current
        if deficit < 0:
            raise ValueError(
                f"{spec.name}: operation plan requires more view ids "
                f"({current}) than the spec allows ({spec.view_ids})"
            )
        for i in range(deficit):
            self.resources.view_id(f"id_extra{i}")

    # -- listeners ---------------------------------------------------------------

    def _emit_listener_registry(self) -> None:
        spec = self.spec
        n_classes = max(1, min(spec.listeners, 10))
        # Multi-listener merges need a common family: make most classes
        # click listeners, sprinkle other families at the end.
        self.listener_classes: List[Tuple[str, ListenerSpec]] = []
        for k in range(n_classes):
            if k < max(1, n_classes - len(_SINGLE_FAMILIES)):
                family = _CLICK_SPEC
            else:
                family = _SINGLE_FAMILIES[k % len(_SINGLE_FAMILIES)]
            name = f"{self._pkg()}.Listener{k}"
            with self.pb.clazz(name, implements=[family.interface]) as c:
                params = [(f"p{i}", t) for i, t in enumerate(family.handler_params)]
                with c.method(family.handler, params=params) as m:
                    m.ret()
                self.method_count += 1
            self.class_count += 1
            self.listener_classes.append((name, family))

        registry = f"{self._pkg()}.Listeners"
        self.registry_class = registry
        self.listener_fields: List[Tuple[str, str, ListenerSpec]] = []
        with self.pb.clazz(registry) as c:
            for i in range(spec.listeners):
                cls, family = self.listener_classes[i % n_classes]
                c.field(f"lst{i}", cls, is_static=True)
                self.listener_fields.append((f"lst{i}", cls, family))
            with c.method("setup", is_static=True) as m:
                for i, (fname, cls, _family) in enumerate(self.listener_fields):
                    v = m.new(cls, line=1000 + i)
                    m.static_store(registry, fname, v, line=1000 + i)
                m.ret()
            self.method_count += 1
        self.class_count += 1
        # Round-robin cursors over click vs other listener fields.
        self._click_fields = [
            (f, c) for f, c, fam in self.listener_fields if fam is _CLICK_SPEC
        ]
        self._other_fields = [
            (f, c, fam) for f, c, fam in self.listener_fields if fam is not _CLICK_SPEC
        ]
        self._click_cursor = 0
        self._other_cursor = 0

    def _next_click_fields(self, count: int) -> List[Tuple[str, str]]:
        out = []
        for _ in range(count):
            out.append(self._click_fields[self._click_cursor % len(self._click_fields)])
            self._click_cursor += 1
        return out

    # -- shared helper -------------------------------------------------------------

    def _emit_shared_helper(self) -> None:
        """Static helper methods hosting the shared (imprecise) ops."""
        cls_name = f"{self._pkg()}.Shared"
        self.shared_class = cls_name
        plan = self.shared_plan
        needs_child = plan["av"] > 0
        with self.pb.clazz(cls_name) as c:
            params = [("v", VIEW)] + ([("w", VIEW)] if needs_child else [])
            with c.method("work", params=params, is_static=True) as m:
                vg = m.cast(VIEW_GROUP, "v", lhs=m.local("vg", VIEW_GROUP), line=2000)
                line = 2001
                for _i in range(plan["sid"]):
                    sid = m.view_id("id_shared_tag", line=line)
                    m.invoke("v", "setId", [sid], line=line)
                    line += 1
                for _i in range(plan["sl"]):
                    fname, fcls = self._next_click_fields(1)[0]
                    lv = m.static_load(self.registry_class, fname,
                                       type_name=fcls, line=line)
                    m.invoke("v", "setOnClickListener", [lv], line=line)
                    line += 1
                for _i in range(plan["av"]):
                    m.invoke(vg, "addView", ["w"], line=line)
                    line += 1
                for _i in range(plan["fv1"]):
                    fid = m.view_id("id_shared_inner", line=line)
                    m.invoke("v", "findViewById", [fid],
                             lhs=m.fresh(VIEW, hint="r"), line=line)
                    line += 1
                m.ret()
            self.method_count += 1
        self.class_count += 1
        if plan["sid"] > 0:
            # The tag id lives only in code; register it before the
            # view-id budget is balanced.
            self.resources.view_id("id_shared_tag")

    # -- activities -----------------------------------------------------------------

    def _emit_activities(self) -> None:
        spec = self.spec
        # Round-robin queues of unshared op work across activities.
        unshared = dict(self.unshared_plan)
        av_params = list(self.av_param_plan)
        sl_plan_iter = list(self.sl_listener_plan)
        # Shared SL ops consumed entries of sl plan implicitly: shared
        # ops always register exactly one listener; reserve the "1"
        # entries of the plan for them.
        sl_plan_iter.sort()  # ones first
        shared_sl = self.shared_plan["sl"]
        unshared_sl_plans = sl_plan_iter[shared_sl:] if shared_sl else sl_plan_iter
        unshared_sl_plans = list(unshared_sl_plans)

        allocs_left = spec.views_allocated
        alloc_line = 5000
        dup_by_act: Dict[int, List[str]] = {}
        for act, dup_name in self.dup_assignment:
            dup_by_act.setdefault(act, []).append(dup_name)

        # Views allocated beyond op needs are "cached" in fields.
        self.activity_classes: List[str] = []
        leaves = widget_leaf_classes()

        for i in range(self.n_act):
            name = f"{self._pkg()}.Activity{i}"
            self.activity_classes.append(name)
            layout = self.layout_plans[self.act_layout_index[i]]
            is_caller = i < self.callers
            panel_indices = [
                s for s in range(len(self.inflate1_layouts))
                if s % self.n_act == i
            ]
            with self.pb.clazz(name, extends="android.app.Activity") as c:
                c.field("cached", VIEW)
                with c.method("onCreate") as m:
                    line = 100 * (i + 1)
                    lid = m.layout_id(layout.name, line=line)
                    m.invoke(m.this, "setContentView", [lid], line=line)
                    line += 1
                    tgt = None
                    if i < self.n_feeder_acts and layout.target_id:
                        tid = m.view_id(layout.target_id, line=line)
                        tv = m.local("tgt0", VIEW)
                        m.invoke(m.this, "findViewById", [tid], lhs=tv, line=line)
                        tgt = m.cast(FRAME_LAYOUT, tv,
                                     lhs=m.local("tgt", FRAME_LAYOUT), line=line)
                        line += 1
                    # Duplicate-id lookups (result imprecision).
                    for dup_name in dup_by_act.get(i, ()):
                        did = m.view_id(dup_name, line=line)
                        m.invoke(m.this, "findViewById", [did],
                                 lhs=m.fresh(VIEW, hint="d"), line=line)
                        line += 1
                    # Shared-helper calls with this activity's feeder views.
                    if is_caller and layout.feed_ids:
                        feeder_vars = []
                        for k, feed_id in enumerate(layout.feed_ids):
                            fid = m.view_id(feed_id, line=line)
                            fv = m.local(f"fv{k}", VIEW)
                            m.invoke(m.this, "findViewById", [fid], lhs=fv, line=line)
                            feeder_vars.append(fv)
                            line += 1
                        w = None
                        if self.shared_plan["av"] > 0:
                            if allocs_left > 0:
                                w = m.new(leaves[i % len(leaves)],
                                          lhs=m.local("w", VIEW), line=line)
                                allocs_left -= 1
                            else:
                                # Out of allocation budget: pass null so
                                # no spurious cross-hierarchy child
                                # edges appear between feeder views.
                                w = m.const_null(lhs=m.local("w", VIEW), line=line)
                            line += 1
                        if spec.recv_avg_ctx > 1.0:
                            # Intra-caller merge: flow-insensitively the
                            # helper sees all b feeders per call site —
                            # the irreducible (context-sensitive) part
                            # of the XBMC-style imprecision.
                            merged = m.local("mv", VIEW)
                            for fv in feeder_vars:
                                m.assign(merged, fv, line=line)
                            call_args = [[merged]]
                        else:
                            # One helper call per feeder: every receiver
                            # in the static set occurs at run time.
                            call_args = [[fv] for fv in feeder_vars]
                        for args in call_args:
                            if w is not None:
                                args = args + [w]
                            m.invoke_static(self.shared_class, "work", args, line=line)
                            line += 1
                    # Unshared ops, round-robin while this activity has
                    # a target receiver.
                    if tgt is not None:
                        line = self._emit_unshared_ops(
                            m, i, tgt, layout, line, unshared, av_params,
                            unshared_sl_plans, leaves,
                            allocs_holder=[allocs_left],
                            panel_indices=list(panel_indices),
                        )
                        # _emit_unshared_ops mutates the alloc budget via
                        # the holder list.
                        allocs_left = self._allocs_left
                    m.ret()
                self.method_count += 1
                # Inflate1 helper methods assigned to this activity.
                for s, layout_index in enumerate(self.inflate1_layouts):
                    if s % self.n_act != i:
                        continue
                    with c.method(f"makePanel{s}", returns=VIEW) as hm:
                        hline = 9000 + s * 10
                        infl = hm.new(INFLATER, lhs=hm.local("infl", INFLATER),
                                      line=hline)
                        hlid = hm.layout_id(
                            self.layout_plans[layout_index].name, line=hline + 1
                        )
                        root = hm.local("root", VIEW)
                        hm.invoke(infl, "inflate", [hlid], lhs=root, line=hline + 1)
                        hm.ret(root, line=hline + 2)
                    self.method_count += 1
            self.class_count += 1
            self.manifest.add_activity(name, launcher=(i == 0))

        # Any operations still unplaced (activities without targets)
        # indicate a planning bug.
        leftovers = {k: v for k, v in unshared.items() if v > 0}
        if any(leftovers.values()):
            raise AssertionError(
                f"{spec.name}: unplaced unshared operations {leftovers}"
            )
        # Spend leftover view allocations as cached views.
        if allocs_left > 0:
            with self.pb.clazz(f"{self._pkg()}.ViewCache") as c:
                for k in range(allocs_left):
                    c.field(f"slot{k}", VIEW, is_static=True)
                with c.method("fill", is_static=True) as m:
                    for k in range(allocs_left):
                        v = m.new(leaves[k % len(leaves)], line=7000 + k)
                        m.static_store(f"{self._pkg()}.ViewCache", f"slot{k}", v,
                                       line=7000 + k)
                    m.ret()
                self.method_count += 1
            self.class_count += 1

    def _emit_unshared_ops(
        self,
        m: MethodBuilder,
        act_index: int,
        tgt: str,
        layout: _LayoutPlan,
        line: int,
        unshared: Dict[str, int],
        av_params: List[int],
        sl_plans: List[int],
        leaves: Sequence[str],
        allocs_holder: List[int],
        panel_indices: Optional[List[int]] = None,
    ) -> int:
        """Emit this activity's share of the unshared operations."""
        spec = self.spec
        remaining_acts = self.n_feeder_acts - act_index
        allocs_left = allocs_holder[0]

        def take(kind: str) -> int:
            total = unshared[kind]
            share = -(-total // remaining_acts)  # ceil division
            share = min(share, total)
            unshared[kind] -= share
            return share

        for _i in range(take("sid")):
            sid = m.view_id(layout.target_id, line=line)
            m.invoke(tgt, "setId", [sid], line=line)
            line += 1
        for _i in range(take("fv1")):
            iid = m.view_id(layout.inner_id or "id_inner", line=line)
            m.invoke(tgt, "findViewById", [iid], lhs=m.fresh(VIEW, hint="q"),
                     line=line)
            line += 1
        for _i in range(take("sl")):
            count = sl_plans.pop() if sl_plans else 1
            if count == 1 and self._other_fields:
                fname, fcls, family = self._other_fields[
                    self._other_cursor % len(self._other_fields)
                ]
                self._other_cursor += 1
                lv = m.static_load(self.registry_class, fname, type_name=fcls,
                                   line=line)
                m.invoke(tgt, family.registration, [lv], line=line)
            else:
                merged = m.fresh("java.lang.Object", hint="ml")
                for fname, fcls in self._next_click_fields(count):
                    lv = m.static_load(self.registry_class, fname,
                                       type_name=fcls, line=line)
                    m.assign(merged, lv, line=line)
                m.invoke(tgt, "setOnClickListener", [merged], line=line)
            line += 1
        panels = list(panel_indices or ())
        for _i in range(take("av")):
            # Largest merges first, while the allocation budget lasts.
            count = av_params.pop(0) if av_params else 1
            merged = m.fresh(VIEW, hint="mw")
            produced = 0
            for _k in range(count):
                if allocs_left > 0:
                    w = m.new(leaves[(line + _k) % len(leaves)], line=line)
                    m.assign(merged, w, line=line)
                    allocs_left -= 1
                    produced += 1
                elif panels:
                    # Allocation budget exhausted: attach a panel
                    # inflated by one of this activity's helpers.
                    s = panels.pop(0)
                    pv = m.fresh(VIEW, hint="pw")
                    m.invoke(m.this, f"makePanel{s}", [], lhs=pv, line=line)
                    m.assign(merged, pv, line=line)
                    produced += 1
            if produced == 0:
                # Reuse the target view itself (the solver skips self
                # parent-child edges; the parameter set stays singleton).
                m.assign(merged, tgt, line=line)
            m.invoke(tgt, "addView", [merged], line=line)
            line += 1
        self._allocs_left = allocs_left
        allocs_holder[0] = allocs_left
        return line

    # -- filler -----------------------------------------------------------------

    def _emit_filler(self) -> None:
        spec = self.spec
        filler_classes = spec.classes - self.class_count
        if filler_classes < 0:
            raise ValueError(
                f"{spec.name}: spec.classes={spec.classes} below the "
                f"{self.class_count} functional classes"
            )
        filler_methods = spec.methods - self.method_count
        if filler_methods < filler_classes:
            raise ValueError(
                f"{spec.name}: spec.methods={spec.methods} too small for "
                f"{self.class_count} functional methods plus one method per "
                f"filler class"
            )
        if filler_classes == 0:
            if filler_methods:
                raise ValueError(f"{spec.name}: leftover methods with no classes")
            return
        base = filler_methods // filler_classes
        extra = filler_methods % filler_classes
        pkg = self._pkg()
        prev_class: Optional[str] = None
        for k in range(filler_classes):
            name = f"{pkg}.Filler{k}"
            extends = prev_class if k % 3 == 1 and prev_class else "java.lang.Object"
            count = base + (1 if k < extra else 0)
            with self.pb.clazz(name, extends=extends) as c:
                c.field("next", "java.lang.Object")
                for q in range(count):
                    with c.method(f"m{q}", params=[("p", "java.lang.Object")],
                                  returns="java.lang.Object") as m:
                        x = m.new(name, line=8000 + q)
                        m.store("this", "next", x, line=8000 + q)
                        y = m.load("this", "next", line=8001 + q)
                        m.assign(y, "p", line=8001 + q)
                        if q > 0:
                            m.invoke(m.this, f"m{q-1}", [y],
                                     lhs=m.fresh("java.lang.Object"),
                                     line=8002 + q)
                        m.ret(y, line=8003 + q)
            self.method_count += count
            self.class_count += 1
            prev_class = name
        assert self.class_count == spec.classes
        assert self.method_count == spec.methods


@gc_paused()
def generate_app(spec: AppSpec) -> AndroidApp:
    """Generate the synthetic app realising ``spec`` (deterministic)."""
    return _Generator(spec).generate()
