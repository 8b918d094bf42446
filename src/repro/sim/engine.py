"""The cycle engine: a two-phase clock over components and channels.

Three engines share one contract:

* ``engine="dense"`` — the original oracle loop: every component ticks
  and every channel commits on every cycle.
* ``engine="compiled"`` — a per-design specialized kernel: a codegen
  pass (:mod:`repro.sim.compile`) flattens the elaborated netlist into
  one generated Python module with inlined handshakes and per-component
  tick bodies specialized on their static configuration, ``exec``'d and
  cached content-addressed by design fingerprint. Designs or
  instrumentation the codegen does not support fall back to the event
  engine explicitly (``Simulator.compiled_fallback`` records why).
* ``engine="event"`` (default) — an event-driven kernel. Components
  declare *sensitivity* (the channels they read/write) and an optional
  self-wake timer (:meth:`Component.next_wake`); the engine keeps a
  current-cycle wake set, a channel ``commit()`` wakes subscribers, and
  only woken components tick. When the wake set runs dry but timers are
  armed (DRAM in flight, cache fills counting down) the clock jumps
  straight to the next deadline — *quiescent fast-forward*. Two
  adaptive layers keep the scheduling overhead bounded on busy
  workloads: steadily-active components are promoted into a *hot set*
  ticked straight off a flat list (no per-cycle enqueue), and when a
  sampling window shows most components waking every cycle with
  nothing to skip, the run loop drops into *dense fallback* — oracle
  stepping with zero wake bookkeeping — until a quiet spell worth
  fast-forwarding reappears (see the ``HYBRID_*`` knobs).

The contract between them is **bit-identical cycle counts and stats**:
TAPAS designs are latency-insensitive (every inter-block interface is a
registered ready/valid handshake, reads observe start-of-cycle state),
so a tick of a component whose inputs did not change and whose timers
have not expired is a pure no-op, and skipping it cannot be observed.
Components that do not implement the sensitivity contract default to
being woken every cycle, which degrades to dense behaviour and is
therefore always safe. Differential tests over every example program and
benchmark config enforce the bit-identity.
"""

from __future__ import annotations

import heapq
import time
from operator import attrgetter
from typing import Callable, Dict, List, Optional

from repro.errors import DeadlockError, SimulationError
from repro.sim.channel import Channel
from repro.sim.component import HOT, NEVER, Component

#: consecutive stay-hot wakes before a component is promoted into the
#: hot set (ticked unconditionally, no per-cycle re-enqueue). Small
#: enough that steadily-active components promote almost immediately,
#: large enough that a transient burst doesn't churn the hot list.
HOT_STREAK = 4

#: adaptive dense fallback: the event engine samples its own waking
#: ratio over windows of this many ticks. Short enough that a window
#: completes between the quiet spans of a busy workload (a fast-forward
#: resets it), long enough to ride out transient bursts ...
HYBRID_WINDOW = 64
#: ... and when a full window woke at least this fraction of all
#: components (and never fast-forwarded), the run loop drops into dense
#: stepping, which ticks everything with zero wake bookkeeping. 0.5 is
#: the measured break-even: a woken event tick costs ~1.5x a dense tick
#: (due/heap consumption, next_wake, subscriber scans), so skipping
#: fewer than half the components no longer pays for the scheduling ...
HYBRID_HOT_FRACTION = 0.5
#: ... until this many consecutive cycles without channel movement
#: signal a quiet span worth fast-forwarding, which flips it back
HYBRID_QUIET_EXIT = 4
#: after a dense span ends in a quiet spell, the workload usually
#: resumes hot once the quiet passes (a DRAM miss in a busy phase):
#: a shortened probe window re-enters dense mode quickly. The bias is
#: cleared by two consecutive completed windows below the hot fraction
#: (one cold window is usually just the pipeline refilling after a
#: fast-forward; two mean the phase really changed).
HYBRID_WINDOW_BIASED = 16

_sim_index_of = attrgetter("_sim_index")


def _merge_by_index(hot, extra):
    """Merge two ``_sim_index``-sorted component lists (registration
    order is preserved for deterministic trace/obs output)."""
    out = []
    i = j = 0
    nhot, nextra = len(hot), len(extra)
    while i < nhot and j < nextra:
        if hot[i]._sim_index <= extra[j]._sim_index:
            out.append(hot[i])
            i += 1
        else:
            out.append(extra[j])
            j += 1
    out.extend(hot[i:])
    out.extend(extra[j:])
    return out

#: cycles of total inactivity tolerated before declaring deadlock; must
#: exceed the worst-case quiet period of any component (DRAM latency).
DEADLOCK_WINDOW = 2048

#: cycles without ANY channel movement tolerated even while components
#: report busy — catches livelocks where stalled units retry forever
#: (e.g. a task-queue-full circular wait in deep recursion).
STALL_WINDOW = 32768

ENGINES = ("event", "dense", "compiled")

#: upper bound on recorded movement-log entries (`repro diff` first-
#: divergence reporting); beyond this the log stops growing and the
#: divergence is reported as "past the recorded window"
MOVEMENT_LOG_CAP = 1_000_000


class Simulator:
    """Owns the clock, all components and all channels."""

    def __init__(self, name: str = "sim", engine: str = "event"):
        if engine not in ENGINES:
            raise SimulationError(
                f"unknown engine {engine!r} (expected one of {ENGINES})")
        self.name = name
        self.engine = engine
        self.cycle = 0
        self.components: List[Component] = []
        self.channels: List[Channel] = []
        self._idle_cycles = 0
        self._quiet_cycles = 0  # no channel movement, busy or not
        self._activity_flag = False
        #: optional per-cycle sampler (repro.obs.Observer); None keeps the
        #: hot loop at a single pointer test per cycle
        self.observer = None
        #: optional host-time attribution (repro.telemetry.HostProfiler);
        #: None keeps both engines' commit paths at one pointer test per
        #: cycle — sim cycles are bit-identical either way
        self.host_profile = None
        #: optional movement trace for differential debugging: when set to
        #: a list, every cycle with channel movement appends
        #: ``(cycle, (sorted channel names...))`` — identical across
        #: engines, so `repro diff` can report the first divergent cycle
        self._movement_log = None
        #: why the compiled engine fell back to the event engine on the
        #: last run (None = ran compiled, or engine != "compiled")
        self.compiled_fallback = None
        #: the compiled kernel's digest and where it came from ("memory",
        #: "disk" or "compiled"), set each time a kernel is prepared
        self.compiled_digest = None
        self.compiled_origin = None
        # -- event-engine state ------------------------------------------
        #: channels with a pending push/pop this cycle (self-registered)
        self._dirty_channels: List[Channel] = []
        #: components due on the very next cycle — the common case, kept
        #: out of the heap so steady-state scheduling is list appends
        self._due_list: List[Component] = []
        self._heap: List[tuple] = []          # (wake_cycle, component index)
        #: the *hot set*: components ticked unconditionally every cycle —
        #: dense-fallback components plus event-aware ones that kept
        #: re-arming for the next cycle. Hot components carry the HOT
        #: wake sentinel so commit-time subscriber scans never re-enqueue
        #: them; membership changes are compacted lazily.
        self._hot_list: List[Component] = []
        self._hot_stale = False
        #: adaptive dense fallback (see HYBRID_*): currently stepping
        #: densely because event scheduling was pure overhead
        self._dense_mode = False
        self._win_cycles = 0                  # ticks in the current window
        self._win_woken = 0                   # components woken in it
        self._win_limit = HYBRID_WINDOW       # shortened while biased
        self._win_cold = 0                    # consecutive cold windows
        self._bias_spans = 0                  # fast-forwards while biased
        self._finalized_shape = (-1, -1)      # (n components, n channels)
        # -- host wall-clock accounting ----------------------------------
        self.host_seconds = 0.0
        self._cycles_simulated = 0
        self._ticks_executed = 0
        self._component_ticks = 0
        self._fast_forwarded_cycles = 0
        self._dense_fallback_cycles = 0
        #: compiled kernel only: TXU stepper calls, and park events per
        #: resource (memory issue, spawn/call, epilogue store)
        self._instance_steps = 0
        self._instance_parks = [0, 0, 0]

    # -- construction -----------------------------------------------------

    def add_component(self, component: Component) -> Component:
        component.sim = self
        component._sim_index = len(self.components)
        component._wake_cycle = NEVER
        component._hot = False
        component._hot_streak = 0
        self.components.append(component)
        return component

    def add_channel(self, name: str, capacity: int = 2) -> Channel:
        channel = Channel(name, capacity)
        channel.sim = self
        self.channels.append(channel)
        return channel

    def attach_observer(self, observer):
        """Install a per-cycle sampler (see :mod:`repro.obs`)."""
        self.observer = observer
        return observer

    def enable_movement_log(self) -> list:
        """Record ``(cycle, (sorted channel names...))`` for every cycle
        with committed channel movement. Bit-identical across all three
        engines, so two logs diverge exactly at the first cycle two runs
        disagree — ``repro diff`` uses this to attribute a divergence to
        a channel and its driving component. Capped at
        :data:`MOVEMENT_LOG_CAP` entries."""
        if self._movement_log is None:
            self._movement_log = []
        return self._movement_log

    def enable_host_profile(self, profiler=None):
        """Install per-component-class host-time attribution (see
        :mod:`repro.telemetry.hostprof`). Call after construction is
        complete — the profiler wraps the components registered so far."""
        from repro.telemetry.hostprof import HostProfiler

        profiler = profiler or HostProfiler()
        return profiler.install(self)

    # -- clock ---------------------------------------------------------------

    def note_activity(self):
        """Components call this when they make internal progress that does
        not show up as channel traffic (e.g. register-only dataflow firings),
        so livelock detection doesn't misfire on long compute loops."""
        self._activity_flag = True

    def tick(self):
        """Advance one cycle densely: all components observe start-of-cycle
        channel state, then every channel commits its handshake. This is
        the oracle step — always correct for either engine (over-waking a
        quiescent component is a no-op)."""
        executed = self.cycle
        components = self.components
        for component in components:
            component.tick(executed)
        self._ticks_executed += 1
        self._component_ticks += len(components)
        moved = False
        profile = self.host_profile
        log = self._movement_log
        if log is not None:
            names = []
            for channel in self.channels:
                if channel.commit():
                    moved = True
                    names.append(channel.name)
            if names and len(log) < MOVEMENT_LOG_CAP:
                log.append((executed, tuple(sorted(names))))
        elif profile is None:
            for channel in self.channels:
                if channel.commit():
                    moved = True
        else:
            t0 = time.perf_counter_ns()
            for channel in self.channels:
                if channel.commit():
                    moved = True
            profile.commit_ns += time.perf_counter_ns() - t0
        self._dirty_channels.clear()
        self.cycle += 1
        self._account(moved)
        if self.observer is not None:
            self.observer.on_cycle(self, executed)

    def _account(self, moved: bool):
        """Shared post-commit bookkeeping for both engines."""
        if moved or self._activity_flag:
            self._quiet_cycles = 0
        else:
            self._quiet_cycles += 1
        self._activity_flag = False
        if moved or any(c.is_busy() for c in self.components):
            self._idle_cycles = 0
        else:
            self._idle_cycles += 1

    def run(self, done: Callable[[], bool], max_cycles: int = 10_000_000) -> int:
        """Run until ``done()`` is true; returns the cycle count.

        ``done`` must be a pure function of simulation state (the event
        engine only evaluates it when state can have changed). Raises
        :class:`DeadlockError` if nothing moves for a full inactivity
        window, and :class:`SimulationError` on timeout.
        """
        start = self.cycle
        t0 = time.perf_counter()
        try:
            if self.engine == "dense":
                self._run_dense(done, start, max_cycles)
            elif self.engine == "compiled":
                self._run_compiled(done, start, max_cycles)
            else:
                self._run_event(done, start, max_cycles)
        finally:
            elapsed = time.perf_counter() - t0
            self.host_seconds += elapsed
            self._cycles_simulated += self.cycle - start
            if self.host_profile is not None:
                self.host_profile.wall_ns += int(elapsed * 1e9)
        return self.cycle - start

    def _check_stalls(self):
        if self._idle_cycles > DEADLOCK_WINDOW:
            raise DeadlockError(self.cycle, self._describe_stall(),
                                postmortem=self.postmortem())
        if self._quiet_cycles > STALL_WINDOW:
            raise DeadlockError(
                self.cycle,
                "components busy but no channel movement (livelock — "
                "likely a task-queue-full circular wait; increase "
                "queue_depth). " + self._describe_stall(),
                postmortem=self.postmortem())

    def _run_dense(self, done, start, max_cycles):
        # hoist the per-cycle lookups out of the loop: the dense engine
        # runs this pair once per simulated cycle
        tick = self.tick
        check = self._check_stalls
        limit = start + max_cycles
        while not done():
            if self.cycle >= limit:
                raise SimulationError(
                    f"simulation exceeded {max_cycles} cycles without finishing")
            tick()
            check()

    # -- the compiled kernel -------------------------------------------------

    def _run_compiled(self, done, start, max_cycles):
        """Run the design through its generated per-design kernel.

        The codegen pass lives in :mod:`repro.sim.compile`; designs or
        instrumentation it cannot specialize (observers, host profiling,
        value probes, unit traces, unrecognized component classes) fall
        back to the event engine — still bit-identical, just slower —
        with the reason recorded in :attr:`compiled_fallback`."""
        from repro.sim.compile import prepare_kernel
        from repro.telemetry.spans import TRACER

        kernel, reason = prepare_kernel(self)
        if kernel is None:
            self.compiled_fallback = reason
            self._run_event(done, start, max_cycles)
            return
        self.compiled_fallback = None
        with TRACER.span("kernel.run", category="sim",
                         digest=self.compiled_digest,
                         origin=self.compiled_origin):
            kernel(self, done, start, max_cycles, self._movement_log)

    # -- the event-driven kernel -------------------------------------------

    def _finalize_event(self):
        """(Re)build the channel-subscription map. A component whose
        sensitivity() is None — or that watches a channel this simulator
        does not own — runs in dense-fallback mode: it joins the hot set
        permanently and is ticked every cycle without ever being
        re-enqueued. Subscriber lists are deduplicated so a channel named
        twice in a sensitivity set wakes its component once."""
        for channel in self.channels:
            channel._subscribers = []
        hot: List[Component] = []
        for component in self.components:
            component._hot_streak = 0
            if component._wake_cycle == HOT:
                # hot under a previous topology: renormalise so the
                # universal first wake below can reach it again
                component._wake_cycle = NEVER
            channels = component.sensitivity()
            aware = channels is not None
            if aware:
                deduped = []
                for channel in channels:
                    if channel not in deduped:
                        deduped.append(channel)
                if any(ch.sim is not self for ch in deduped):
                    aware = False
            if not aware:
                component._event_aware = False
                component._hot = True
                component._wake_cycle = HOT
                hot.append(component)
                continue
            component._event_aware = True
            component._hot = False
            for channel in deduped:
                channel._subscribers.append(component)
        self._hot_list = hot  # components iterated in _sim_index order
        self._hot_stale = False
        self._finalized_shape = (len(self.components), len(self.channels))

    def _next_event_cycle(self) -> Optional[int]:
        """Earliest scheduled wake, discarding stale heap entries."""
        heap = self._heap
        components = self.components
        while heap:
            cyc, idx = heap[0]
            if components[idx]._wake_cycle == cyc:
                return cyc
            heapq.heappop(heap)
        return None

    def _tick_event(self):
        """One event-driven cycle: tick the hot set plus the woken set,
        commit the dirty channels, wake their subscribers.

        Hot components (steadily active — dense-fallback components, or
        event-aware ones that kept re-arming for the very next cycle)
        are ticked straight off ``_hot_list`` with no per-cycle
        enqueue/dequeue, no sort and no subscriber re-wakes: exactly the
        dense engine's cost for the components that behave densely.
        """
        executed = self.cycle
        next_cycle = executed + 1
        heap = self._heap
        components = self.components
        hot = self._hot_list
        # consume the due list and any due heap entries in one pass; the
        # _wake_cycle check drops stale heap entries and deduplicates
        # components present in both
        extra = []
        if self._due_list:
            for component in self._due_list:
                if component._wake_cycle == executed:
                    component._wake_cycle = NEVER
                    extra.append(component)
            self._due_list = []
        while heap and heap[0][0] <= executed:
            cyc, idx = heapq.heappop(heap)
            component = components[idx]
            if component._wake_cycle == cyc:
                component._wake_cycle = NEVER
                extra.append(component)
        if extra:
            # tick order never changes behaviour (two-phase clock), but
            # keep registration order for determinism of trace/obs output
            if len(extra) > 1:
                extra.sort(key=_sim_index_of)
            woken = _merge_by_index(hot, extra) if hot else extra
        else:
            woken = hot
        due = self._due_list
        for component in woken:
            component.tick(executed)
            if not component._event_aware:
                continue  # permanently hot: the dense fallback
            wake = component.next_wake(executed)
            if component._hot:
                if wake > next_cycle:
                    # cools off: leave the hot set and park on the timer
                    component._hot = False
                    component._hot_streak = 0
                    self._hot_stale = True
                    if wake < NEVER:
                        component._wake_cycle = wake
                        heapq.heappush(heap, (wake, component._sim_index))
                    else:
                        component._wake_cycle = NEVER
            elif wake <= next_cycle:
                streak = component._hot_streak + 1
                if streak >= HOT_STREAK:
                    # steadily active: promote into the hot set
                    component._hot = True
                    component._hot_streak = 0
                    component._wake_cycle = HOT
                    self._hot_list.append(component)
                    self._hot_stale = True  # restore _sim_index order
                else:
                    component._hot_streak = streak
                    if next_cycle < component._wake_cycle:
                        component._wake_cycle = next_cycle
                        due.append(component)
            else:
                component._hot_streak = 0
                if wake < NEVER and wake < component._wake_cycle:
                    component._wake_cycle = wake
                    heapq.heappush(heap, (wake, component._sim_index))
        self._ticks_executed += 1
        nwoken = len(woken)
        self._component_ticks += nwoken
        # adaptive dense fallback: sample the waking ratio. A window only
        # fills when no fast-forward happened inside it (_fast_forward
        # resets the counters), so a full near-universal window means the
        # wake machinery is pure overhead — step densely until a quiet
        # span reappears.
        wc = self._win_cycles + 1
        if wc >= self._win_limit:
            if (self._win_woken + nwoken
                    >= HYBRID_HOT_FRACTION * wc * len(components)):
                self._dense_mode = True
                self._win_cold = 0
            else:
                self._win_cold += 1
                if self._win_cold >= 2:  # phase change: clear the bias
                    self._win_limit = HYBRID_WINDOW
            self._win_cycles = 0
            self._win_woken = 0
        else:
            self._win_cycles = wc
            self._win_woken += nwoken
        if self._hot_stale:
            # drop demoted members and restore registration order after
            # promotions appended at the tail (rare; timsort on the
            # nearly-sorted list is effectively linear). Compacting now —
            # not lazily at the next tick — keeps a stale-empty hot list
            # from blocking quiescent fast-forward for a cycle.
            self._hot_list = sorted(
                (c for c in self._hot_list if c._hot), key=_sim_index_of)
            self._hot_stale = False

        moved = False
        if self._dirty_channels:
            profile = self.host_profile
            log = self._movement_log
            names = None if log is None else []
            t0 = 0 if profile is None else time.perf_counter_ns()
            dirty = self._dirty_channels
            self._dirty_channels = []
            for channel in dirty:
                if channel.commit():
                    moved = True
                    if names is not None:
                        names.append(channel.name)
                    for subscriber in channel._subscribers:
                        # hot subscribers carry the HOT sentinel, so this
                        # wake test skips them without a re-enqueue
                        if next_cycle < subscriber._wake_cycle:
                            subscriber._wake_cycle = next_cycle
                            due.append(subscriber)
            if profile is not None:
                profile.commit_ns += time.perf_counter_ns() - t0
            if names and len(log) < MOVEMENT_LOG_CAP:
                log.append((executed, tuple(sorted(names))))
        self.cycle = next_cycle
        self._account(moved)
        if self.observer is not None:
            self.observer.on_cycle(self, executed)

    def _fast_forward(self, start, max_cycles):
        """The wake set is empty and no channel is pending: nothing can
        change until the next armed timer. Jump the clock there in one
        step, stopping early at any deadlock/livelock/timeout boundary so
        those still fire at exactly the dense engine's cycle."""
        target = self._next_event_cycle()
        limit = start + max_cycles  # timeout boundary (checked at loop top)
        target = limit if target is None else min(target, limit)
        # during the span nothing moves and no state changes, so the
        # inactivity counters advance linearly — stop where they trip
        busy = any(c.is_busy() for c in self.components)
        if not busy:
            target = min(target,
                         self.cycle + DEADLOCK_WINDOW + 1 - self._idle_cycles)
        target = min(target,
                     self.cycle + STALL_WINDOW + 1 - self._quiet_cycles)
        span = target - self.cycle
        if span <= 0:  # a wake is due right now — run a normal cycle
            self._tick_event()
            return
        # a quiet span proves the workload is not always-hot right now:
        # restart the dense-fallback sampling window
        self._win_cycles = 0
        self._win_woken = 0
        first_skipped = self.cycle
        self.cycle = target
        self._quiet_cycles += span
        if not busy:
            self._idle_cycles += span
        self._fast_forwarded_cycles += span
        if self.observer is not None:
            synth = getattr(self.observer, "on_quiet_span", None)
            if synth is not None:
                synth(self, first_skipped, span)
            else:  # third-party observer: exact per-cycle replay
                for cyc in range(first_skipped, target):
                    self.observer.on_cycle(self, cyc)

    def _wake_all(self):
        """Universal wake: schedule every non-hot component for the
        current cycle and drop the (now stale) timer heap. Used at run()
        entry — captures externally staged pushes (the host spawn) and
        matches the dense engine's universal first tick — and when a
        dense-fallback span ends, since dense stepping keeps no wake
        bookkeeping. Over-waking a quiescent component is a no-op, so
        this is always safe; timers re-arm via next_wake() after the
        woken tick."""
        self._heap.clear()
        del self._due_list[:]
        cycle = self.cycle
        due = self._due_list
        for component in self.components:
            if not component._hot:
                component._wake_cycle = cycle
                due.append(component)

    def _run_event(self, done, start, max_cycles):
        if self._finalized_shape != (len(self.components), len(self.channels)):
            self._finalize_event()
        self._wake_all()
        tick = self._tick_event
        dense_tick = self.tick
        check = self._check_stalls
        limit = start + max_cycles
        while not done():
            if self.cycle >= limit:
                raise SimulationError(
                    f"simulation exceeded {max_cycles} cycles without finishing")
            if self._dense_mode:
                # always-hot fallback: the oracle step, zero scheduling
                dense_tick()
                self._dense_fallback_cycles += 1
                if self._quiet_cycles >= HYBRID_QUIET_EXIT:
                    # activity dried up — back to event stepping, which
                    # can fast-forward the quiet span; bias the sampler
                    # so the hot phase re-enters dense quickly after it
                    self._dense_mode = False
                    self._win_limit = HYBRID_WINDOW_BIASED
                    self._win_cold = 0
                    self._wake_all()
            elif (self._hot_list or self._due_list or self._dirty_channels
                    or self._next_event_cycle() == self.cycle):
                tick()
            else:
                skipped = self._fast_forwarded_cycles
                self._fast_forward(start, max_cycles)
                if (self._win_limit == HYBRID_WINDOW_BIASED
                        and self._fast_forwarded_cycles != skipped):
                    # hot-phase bias: the quiet span is over, resume
                    # dense stepping straight away — except every 8th
                    # span, which runs the probe windows instead so a
                    # real phase change can still clear the bias
                    self._bias_spans += 1
                    if self._bias_spans & 7:
                        self._dense_mode = True
            check()

    def postmortem(self) -> dict:
        """Per-component stall attribution plus stuck-channel inventory —
        the deadlock post-mortem attached to :class:`DeadlockError`."""
        from repro.obs.observer import stall_snapshot

        return stall_snapshot(self)

    def _describe_stall(self) -> str:
        from repro.obs.observer import render_stall_snapshot

        return render_stall_snapshot(self.postmortem())

    # -- reporting --------------------------------------------------------

    def engine_stats(self) -> Dict[str, object]:
        """Host-side performance of the simulation itself (never part of
        the bit-identical architectural stats)."""
        seconds = self.host_seconds
        stats = {
            "name": self.engine,
            "host_seconds": round(seconds, 6),
            "sim_cycles_per_host_second":
                round(self._cycles_simulated / seconds) if seconds > 0 else None,
            "cycles_simulated": self._cycles_simulated,
            "ticks_executed": self._ticks_executed,
            "component_ticks": self._component_ticks,
            "fast_forwarded_cycles": self._fast_forwarded_cycles,
            "dense_fallback_cycles": self._dense_fallback_cycles,
        }
        if self.engine == "compiled":
            stats["compiled_fallback"] = self.compiled_fallback
            if self.compiled_fallback is None and self.compiled_digest:
                stats["kernel_origin"] = self.compiled_origin
                stats["kernel_digest"] = self.compiled_digest
                stats["instance_steps"] = self._instance_steps
                stats["instance_parks"] = dict(zip(
                    ("memory", "spawn", "epilogue"), self._instance_parks))
        return stats

    def stats(self) -> Dict[str, dict]:
        """Architectural stats plus engine metadata.

        Every component is reported (even when its own counters are empty
        — its channels may still have moved), alongside the unconditional
        ``cycles`` and ``engine`` keys. Everything except ``engine`` is
        bit-identical across engines.
        """
        out: Dict[str, dict] = {
            "cycles": self.cycle,
            "engine": self.engine_stats(),
        }
        for component in self.components:
            out[component.name] = component.stats()
        channels = {
            ch.name: {"pushed": ch.total_pushed, "popped": ch.total_popped,
                      "capacity": ch.capacity, "occupancy": ch.occupancy}
            for ch in self.channels if ch.total_pushed or ch.total_popped
        }
        if channels:
            out["channels"] = channels
        return out

    def __repr__(self):
        return (f"<Simulator {self.name} engine={self.engine} "
                f"cycle={self.cycle} {len(self.components)} components>")
