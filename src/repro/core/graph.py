"""The template execution graph (paper §4.3).

States are (template-or-builtin, context element declaration) pairs; an
edge records that executing one state's template body reached another state
through an ``apply-templates``/``call-template`` site.  "Each template
instantiation creates a new graph state (unless there is a recursion)".

The graph drives the inline/non-inline decision (§4.4, narrowed as §7.2
proposes): the states on a cycle become functions, every other state
inlines.
"""

from __future__ import annotations


class GraphState:
    """(template, decl) — 'template' may be a BUILTIN_* sentinel string."""

    __slots__ = ("template", "decl")

    def __init__(self, template, decl):
        self.template = template
        self.decl = decl

    def key(self):
        decl_key = id(self.decl) if self.decl is not None else None
        template_key = (
            self.template if isinstance(self.template, str) else id(self.template)
        )
        return (template_key, decl_key)

    def label(self):
        decl_name = self.decl.name if self.decl is not None else "#document"
        if isinstance(self.template, str):
            return "%s @ %s" % (self.template, decl_name)
        return "%s @ %s" % (self.template.label(), decl_name)

    def __repr__(self):
        return "<GraphState %s>" % self.label()


class ExecutionGraph:
    """States plus site-labelled transitions."""

    def __init__(self):
        self._states = {}     # key -> GraphState
        self._edges = {}      # state key -> list of (site_id, target key)
        self.root = None

    def state(self, template, decl):
        candidate = GraphState(template, decl)
        key = candidate.key()
        if key not in self._states:
            self._states[key] = candidate
            self._edges[key] = []
        return self._states[key]

    def add_edge(self, source, site_id, target):
        edge = (site_id, target.key())
        if edge not in self._edges[source.key()]:
            self._edges[source.key()].append(edge)

    def states(self):
        return list(self._states.values())

    def successors(self, state):
        return [
            (site_id, self._states[target_key])
            for site_id, target_key in self._edges[state.key()]
        ]

    def is_recursive(self):
        """Any cycle in the state graph?"""
        return any(self._reaches_itself(key) for key in self._states)

    def cyclic_state_keys(self):
        """Keys of every state that lies on a cycle (it can reach itself).

        These are the states that must stay functions in partial inline
        mode (paper §7.2); everything else inlines safely.
        """
        return {key for key in self._states if self._reaches_itself(key)}

    def _reaches_itself(self, start):
        stack = [target for _, target in self._edges[start]]
        seen = set()
        while stack:
            key = stack.pop()
            if key == start:
                return True
            if key in seen:
                continue
            seen.add(key)
            stack.extend(target for _, target in self._edges[key])
        return False

    def to_text(self):
        lines = []
        for state in self.states():
            lines.append(state.label())
            for site_id, target in self.successors(state):
                lines.append("  --site %s--> %s" % (site_id, target.label()))
        return "\n".join(lines)


def build_execution_graph(trace, sample):
    """Build the graph from VM trace events over the sample document."""
    graph = ExecutionGraph()

    def decl_of(node):
        if node is None:
            return None
        decl = sample.decl_for(node)
        return decl  # None for the document node / text nodes

    # Map each instantiation to a state; edges come from the apply/call
    # events, whose context node identifies the *caller's* context.
    for event in trace.apply_events:
        caller_decl = decl_of(event.context_node)
        if event.caller is None and event.site is None:
            source = graph.state("#root", None)
        else:
            source = graph.state(
                event.caller if event.caller is not None else "#builtin-caller",
                caller_decl,
            )
        target = graph.state(event.resolved, decl_of(event.selected_node))
        site_id = event.site.site_id if event.site is not None else "root"
        graph.add_edge(source, site_id, target)
        if graph.root is None:
            graph.root = source
    for event in trace.call_events:
        caller_decl = decl_of(event.context_node)
        source = graph.state(
            event.caller if event.caller is not None else "#root", caller_decl
        )
        # call-template keeps the context node, hence the same decl.
        target = graph.state(event.template, caller_decl)
        graph.add_edge(source, event.site.site_id, target)
    return graph
