"""The structural schema model.

This is deliberately simpler than full XML Schema: it captures exactly the
facts the paper's rewrite techniques consume —

* §3.4 children model group: ``sequence`` / ``choice`` / ``all``;
* §3.4 cardinality: at-most-one (LET) vs many (FOR);
* §3.5 parent uniqueness (for removing backward-axis tests);
* §4.2/7.2 recursion (recursive structures fall back to functional
  evaluation, as the paper's implementation does).
"""

from __future__ import annotations

from repro.errors import SchemaError

# Model-group kinds
SEQUENCE = "sequence"
CHOICE = "choice"
ALL = "all"

# Occurrence indicators
ONE = "1"
OPTIONAL = "?"
MANY = "*"
ONE_OR_MORE = "+"

_SINGLE_OCCURS = frozenset([ONE, OPTIONAL])
_VALID_OCCURS = frozenset([ONE, OPTIONAL, MANY, ONE_OR_MORE])
_VALID_GROUPS = frozenset([SEQUENCE, CHOICE, ALL])


class Particle:
    """One child slot: an element declaration plus its cardinality."""

    __slots__ = ("decl", "occurs")

    def __init__(self, decl, occurs=ONE):
        if occurs not in _VALID_OCCURS:
            raise SchemaError("invalid occurrence indicator %r" % occurs)
        self.decl = decl
        self.occurs = occurs

    @property
    def at_most_one(self):
        """True when a LET suffices to bind this child (§3.4)."""
        return self.occurs in _SINGLE_OCCURS

    @property
    def required(self):
        return self.occurs in (ONE, ONE_OR_MORE)

    def __repr__(self):
        suffix = "" if self.occurs == ONE else self.occurs
        return "%s%s" % (self.decl.name, suffix)


class ElementDecl:
    """Declaration of one element type."""

    __slots__ = ("name", "group", "particles", "has_text", "attributes")

    def __init__(self, name, group=None, particles=None, has_text=False,
                 attributes=None):
        if group is not None and group not in _VALID_GROUPS:
            raise SchemaError("invalid model group %r" % group)
        self.name = name
        self.group = group                # None = no element children
        self.particles = particles or []
        self.has_text = has_text
        self.attributes = attributes or []

    @property
    def is_leaf(self):
        return not self.particles

    def particle_for(self, child_name):
        """The particle declaring ``child_name``, or None."""
        for particle in self.particles:
            if particle.decl.name == child_name:
                return particle
        return None

    def child_names(self):
        return [particle.decl.name for particle in self.particles]

    def __repr__(self):
        return "<ElementDecl %s group=%s children=%s>" % (
            self.name, self.group, self.child_names(),
        )


class StructuralSchema:
    """A whole-document structural schema rooted at one element type."""

    def __init__(self, root):
        self.root = root
        self._parents = None
        self._models = {}  # ElementDecl -> ContentModel

    # -- global analyses -----------------------------------------------------

    def iter_decls(self):
        """All reachable declarations (each yielded once)."""
        seen = set()
        stack = [self.root]
        while stack:
            decl = stack.pop()
            if id(decl) in seen:
                continue
            seen.add(id(decl))
            yield decl
            stack.extend(particle.decl for particle in decl.particles)

    def is_recursive(self):
        """True if any element type can (indirectly) contain itself.  An
        iterative depth-first search (every compile's sample generation
        asks): a recursive closure would be a reference cycle per call."""
        visiting = {id(self.root)}
        finished = set()
        walks = [(self.root, iter(self.root.particles))]
        while walks:
            decl, particles = walks[-1]
            for particle in particles:
                child = particle.decl
                if id(child) in visiting:
                    return True
                if id(child) not in finished:
                    visiting.add(id(child))
                    walks.append((child, iter(child.particles)))
                    break
            else:
                walks.pop()
                visiting.discard(id(decl))
                finished.add(id(decl))
        return False

    def parents_of(self, name):
        """All element-type names that can be the parent of ``name``.

        Drives §3.5: if an element type has exactly one possible parent, the
        backward parent-axis test in a translated pattern is redundant.
        """
        if self._parents is None:
            parents = {}
            for decl in self.iter_decls():
                for particle in decl.particles:
                    parents.setdefault(particle.decl.name, set()).add(decl.name)
            self._parents = parents
        return self._parents.get(name, set())

    def unique_parent(self, name):
        """The single possible parent name, or None if ambiguous/root."""
        parents = self.parents_of(name)
        if len(parents) == 1:
            return next(iter(parents))
        return None

    def find_decl(self, name):
        """Any reachable declaration with this element name, or None.

        Distinct declarations may share a name; this returns the first in
        traversal order (sufficient for homogeneous schemas; the rewrite
        tracks declarations directly, not by name).
        """
        for decl in self.iter_decls():
            if decl.name == name:
                return decl
        return None

    def content_model(self, decl):
        """The :class:`ContentModel` of one declaration, compiled once."""
        model = self._models.get(decl)
        if model is None:
            model = self._models[decl] = ContentModel(decl)
        return model

    def validate(self, document):
        """Check a document instance against the schema; returns a list of
        violation strings (empty when valid)."""
        violations = []

        def check(element, decl, path):
            model = self.content_model(decl)
            known = []  # (child element, its particle's position)
            for child in element.child_elements():
                position = model.index_of.get(child.name.local)
                if position is None:
                    violations.append(
                        "%s: unexpected child <%s>" % (path, child.name.local))
                else:
                    known.append((child, position))
            violations.extend(
                "%s: %s" % (path, message) for message in model.violations(
                    [position for _, position in known]))
            for child, position in known:
                check(child, decl.particles[position].decl,
                      path + "/" + child.name.local)

        root_element = document.document_element
        if root_element is None:
            return ["document has no element"]
        if root_element.name.local != self.root.name:
            return [
                "root is <%s>, expected <%s>"
                % (root_element.name.local, self.root.name)
            ]
        check(root_element, self.root, "/" + self.root.name)
        return violations


class ContentModel:
    """One declaration's children, compiled for conformance checks: the
    definition :meth:`StructuralSchema.validate` and the object-relational
    shredder share.  ``index_of`` maps a child element name to the
    position of its particle (the first, for a name declared twice, as
    :meth:`ElementDecl.particle_for`); :meth:`violations` judges the
    positions an element's children resolved to.  A child with no
    particle has no position: it is the caller's to report.
    """

    __slots__ = ("index_of", "_group", "_canonical", "_counted")

    _EXPECTED = {ONE: "1", OPTIONAL: "at most 1", ONE_OR_MORE: "at least 1"}

    def __init__(self, decl):
        self.index_of = index_of = {}
        for position, particle in enumerate(decl.particles):
            index_of.setdefault(particle.decl.name, position)
        occurs = [(position, name, decl.particles[position].occurs)
                  for name, position in index_of.items()]
        self._group = decl.group
        # the row case: every child exactly once, in declaration order
        self._canonical = (
            list(index_of.values()) if decl.group == SEQUENCE
            and all(indicator == ONE for _, _, indicator in occurs) else None)
        # the particles with a count to keep; a choice group only ever
        # bounds the total
        self._counted = [entry for entry in occurs if entry[2] != MANY
                         and decl.group != CHOICE]

    def violations(self, positions):
        """What is wrong with children that resolved, in document order,
        to these particle positions: messages, none when they conform."""
        if positions == self._canonical:
            return ()
        found = []
        if self._group == CHOICE and len(positions) > 1:
            found.append("choice group with %d children" % len(positions))
        if self._group == SEQUENCE and positions != sorted(positions):
            found.append("sequence order violated")
        for position, name, indicator in self._counted:
            count = positions.count(position)
            if (count != 1 if indicator == ONE
                    else count > 1 if indicator == OPTIONAL else count < 1):
                found.append("<%s> occurs %d times, expected %s"
                             % (name, count, self._EXPECTED[indicator]))
        return found


# -- terse constructors (tests, benchmarks) --------------------------------------


def leaf(name, attributes=None):
    """A text-only element declaration."""
    return ElementDecl(name, has_text=True, attributes=attributes)


def seq(name, *children, **kwargs):
    """A sequence-group element; children are Particles or ElementDecls."""
    return _group(name, SEQUENCE, children, kwargs)


def choice(name, *children, **kwargs):
    """A choice-group element."""
    return _group(name, CHOICE, children, kwargs)


def all_group(name, *children, **kwargs):
    """An all-group element."""
    return _group(name, ALL, children, kwargs)


def many(decl):
    """Particle with ``*`` cardinality."""
    return Particle(decl, MANY)


def optional(decl):
    """Particle with ``?`` cardinality."""
    return Particle(decl, OPTIONAL)


def _group(name, kind, children, kwargs):
    particles = [
        child if isinstance(child, Particle) else Particle(child)
        for child in children
    ]
    return ElementDecl(name, group=kind, particles=particles, **kwargs)
