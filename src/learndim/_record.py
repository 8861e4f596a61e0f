"""Frozen record base of the result types.

A subclass declares its fields as class annotations, in order; trailing
fields may take class-level defaults.  Defining the subclass compiles one
`__init__` that takes the fields, with their annotations and defaults (as
`inspect.signature` shows), and then calls `__post_init__` when the class
defines one.  Equality (same class only), hashing and `repr` go by the
field values; writing or deleting any attribute raises AttributeError.
The standard library's decorator for such classes would do the same, but
importing it pulls `inspect`, `ast` and `dis` into every short-lived CLI
child.

A record keeps a `__dict__` (for cached properties, say) unless its class
declares `__slots__` naming its fields.
"""


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        own = vars(cls)
        annotations = own.get("__annotations__", {})
        cls._fields = fields = tuple(annotations)
        slots = own.get("__slots__", ())
        params = ", ".join(
            f"{f}=_defaults[{f!r}]" if f in own and f not in slots else f for f in fields
        )
        body = "".join(f"\n    _set(self, {f!r}, {f})" for f in fields)
        if hasattr(cls, "__post_init__"):
            body += "\n    self.__post_init__()"
        namespace: dict = {}
        # A field without a default after one with a default is a SyntaxError.
        exec(
            f"def __init__(self, {params}):{body}",
            {"_set": object.__setattr__, "_defaults": own},
            namespace,
        )
        init = namespace["__init__"]
        init.__annotations__ = {**annotations, "return": None}
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
