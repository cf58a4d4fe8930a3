"""Unified telemetry event bus.

One :class:`TelemetryBus` per :class:`~repro.noc.network.Network` is the
single instrumentation seam of the simulator.  Every probe — the route
tracer, the invariant sanitizer, the epoch sampler, the trace exporter,
the latency ledger — subscribes to named events instead of
monkey-patching simulator methods, so probes compose and the hot path
stays intact.

Zero-cost contract
------------------
Each event is an attribute on the bus that is ``None`` while nobody
listens.  Emission sites are written as::

    bus = self._telemetry
    if bus.packet_eject is not None:
        bus.packet_eject(self, packet, now)

so an uninstrumented run pays one attribute load and one ``is not None``
test per event site — measured at well under the 5% wall-clock budget
(see ``docs/observability.md``).  Subscribing rebinds the attribute to the
callback (or to a fan-out dispatcher when several callbacks are attached);
unsubscribing the last callback restores ``None``.  A collector declares
its callbacks as one ``{event: callback}`` table and hands it to
:meth:`TelemetryBus.attach`, whose :class:`Subscription` handle undoes
exactly that table on :meth:`~Subscription.close`.

Event catalogue (arguments each callback receives):

=================  ===========================================================
``packet_inject``  ``(network, packet)`` — packet handed to its source router
``packet_eject``   ``(router, packet, now)`` — tail flit ejected, packet done
``route_compute``  ``(router, packet, in_port, in_vc, now)`` — routing
                   computation produced the packet's candidate outputs here
``vc_alloc``       ``(router, packet, in_port, in_vc, out_port, out_vc, now)``
                   — VC allocation granted the packet an output VC
``flit_send``      ``(router, flit, out_port, out_vc, now)`` — switch traversal
``flit_recv``      ``(router, port, vc, flit, now)`` — flit entered an input VC
``link_accept``    ``(link, flit, vc, now)`` — flit entered a link at the TX
                   (emitted by the granting router on the link's behalf)
``credit_return``  ``(link, vc, now)`` — a buffer slot credit left downstream
                   (emitted by the granting router on the link's behalf)
``credit_stall``   ``(router, out_port, vc, now)`` — an active VC had a flit
                   ready but zero downstream credits this cycle
``phy_dispatch``   ``(link, flit, vc, phy, now)`` — hetero-PHY TX dispatched a
                   flit on ``phy`` (``"P"`` parallel or ``"S"`` serial, the
                   dispatch-policy vocabulary of ``repro.core.scheduling``)
``rob_insert``     ``(link, flit, vc, now)`` — flit entered the reorder buffer
``rob_release``    ``(link, flit, vc, now)`` — flit released in order to RX
``cycle_end``      ``(network, now)`` — the network finished stepping ``now``
=================  ===========================================================

Ordering guarantees
-------------------
Three properties every collector may rely on (the latency ledger does):

* **Event order is emission order** and emission cycles never decrease:
  within one cycle, links step before routers and ``cycle_end`` fires
  last (see :meth:`repro.noc.network.Network.step`).
* **A switch grant emits per flit, in index order**: ``credit_return``
  (when the input VC has an upstream link), ``flit_send``, then
  ``link_accept`` (unless the flit ejects), all before the link's
  ``accept`` books the run.
* **Subscriber order is subscription order.**  With several callbacks on
  one event, emission fans out over a tuple snapshot in the order the
  callbacks subscribed; attaching or detaching *other* subscribers (a
  recorder, a tracer) never reorders events relative to each
  other or changes what an existing subscriber observes.  Callbacks run
  synchronously and must not mutate simulator state.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional

#: All event names, in catalogue order.
EVENT_NAMES: tuple[str, ...] = (
    "packet_inject",
    "packet_eject",
    "route_compute",
    "vc_alloc",
    "flit_send",
    "flit_recv",
    "link_accept",
    "credit_return",
    "credit_stall",
    "phy_dispatch",
    "rob_insert",
    "rob_release",
    "cycle_end",
)

Callback = Callable[..., None]


class TelemetryBus:
    """Publish/subscribe hub for simulator instrumentation events."""

    __slots__ = (*EVENT_NAMES, "_subscribers")

    packet_inject: Optional[Callback]
    packet_eject: Optional[Callback]
    route_compute: Optional[Callback]
    vc_alloc: Optional[Callback]
    flit_send: Optional[Callback]
    flit_recv: Optional[Callback]
    link_accept: Optional[Callback]
    credit_return: Optional[Callback]
    credit_stall: Optional[Callback]
    phy_dispatch: Optional[Callback]
    rob_insert: Optional[Callback]
    rob_release: Optional[Callback]
    cycle_end: Optional[Callback]

    def __init__(self) -> None:
        for name in EVENT_NAMES:
            setattr(self, name, None)
        self._subscribers: dict[str, list[Callback]] = {name: [] for name in EVENT_NAMES}

    # -- subscription management -------------------------------------------
    def subscribe(self, event: str, callback: Callback) -> Callback:
        """Attach ``callback`` to ``event``; returns the callback."""
        subscribers = self._subscribers_for(event)
        subscribers.append(callback)
        self._rebind(event)
        return callback

    def unsubscribe(self, event: str, callback: Callback) -> None:
        """Detach one previously subscribed callback (no-op if absent)."""
        subscribers = self._subscribers_for(event)
        try:
            subscribers.remove(callback)
        except ValueError:
            return
        self._rebind(event)

    def attach(self, table: Mapping[str, Callback]) -> "Subscription":
        """Subscribe every ``{event: callback}`` of ``table``, in its order.

        Every event name is checked before the first subscription, so an
        unknown one raises and subscribes nothing.
        """
        for event in table:
            self._subscribers_for(event)
        for event, callback in table.items():
            self.subscribe(event, callback)
        return Subscription(self, table)

    def subscriber_count(self, event: str) -> int:
        return len(self._subscribers_for(event))

    # -- internals ----------------------------------------------------------
    def _subscribers_for(self, event: str) -> list[Callback]:
        try:
            return self._subscribers[event]
        except KeyError:
            raise ValueError(
                f"unknown telemetry event {event!r}; known events: "
                + ", ".join(EVENT_NAMES)
            ) from None

    def _rebind(self, event: str) -> None:
        subscribers = self._subscribers[event]
        if not subscribers:
            setattr(self, event, None)
        elif len(subscribers) == 1:
            setattr(self, event, subscribers[0])
        else:
            # Fan-out closure over a snapshot: subscribing mid-dispatch
            # never mutates the tuple an emission is iterating.
            targets = tuple(subscribers)

            def dispatch(*args: Any, _targets: tuple[Callback, ...] = targets) -> None:
                for target in _targets:
                    target(*args)

            setattr(self, event, dispatch)


class Subscription:
    """What one :meth:`TelemetryBus.attach` subscribed, until :meth:`close`."""

    __slots__ = ("_bus", "_table")

    def __init__(self, bus: TelemetryBus, table: Mapping[str, Callback]) -> None:
        self._bus = bus
        self._table: Optional[dict[str, Callback]] = dict(table)

    @property
    def closed(self) -> bool:
        return self._table is None

    def close(self) -> None:
        """Unsubscribe the table once and drop its callbacks (idempotent).

        The callbacks are usually bound methods of the collector holding
        this handle; dropping them leaves no reference cycle behind.
        """
        table, self._table = self._table, None
        for event, callback in (table or {}).items():
            self._bus.unsubscribe(event, callback)


class _InertBus(TelemetryBus):
    """Placeholder bus for links not yet attached to a network.

    Emission through it is a no-op (every hook is ``None``); subscribing is
    an error, because events from the object would flow to the network's
    real bus after :meth:`~repro.noc.link.Link.attach`.
    """

    __slots__ = ()

    def subscribe(self, event: str, callback: Callback) -> Callback:
        raise RuntimeError(
            "cannot subscribe to an unattached component's inert bus; "
            "subscribe to network.telemetry instead"
        )


#: Shared inert bus used as the pre-attach default.
NULL_BUS = _InertBus()
