"""Runtime values of the pseudocode language.

Pseudocode programs compute over Python ints/floats/strings/booleans plus
two language-specific values: :class:`MessageValue` (``MESSAGE.name(v)``)
and :class:`Instance` (``new ClassName()``, which owns a mailbox so it
can be a ``Send(...).To(...)`` target).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..core.mailbox import DeliveryPolicy, Mailbox

if TYPE_CHECKING:  # pragma: no cover
    from .ast_nodes import ClassDef

__all__ = ["MessageValue", "Instance", "format_value"]


@dataclass(frozen=True)
class MessageValue:
    """A ``MESSAGE.name(args...)`` value — named, carries a value tuple.

    The paper: "A special message variable that carries a collection of
    values.  The message-name is used to distinguish message variables
    from one another."
    """

    name: str
    args: tuple = ()

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"MESSAGE.{self.name}({inner})"


class Instance:
    """An object created with ``new ClassName(...)``.

    Owns a mailbox (so it can receive messages) and a field dictionary.
    Identity semantics — two instances are equal only if identical.
    ``serial`` numbers the instances of one run in creation order; it
    names the instance and its mailbox.
    """

    def __init__(self, class_def: "ClassDef", serial: int,
                 policy: DeliveryPolicy = DeliveryPolicy.ARBITRARY):
        self.serial = serial
        self.class_def = class_def
        self.fields: dict[str, Any] = {}
        self.mailbox = Mailbox(f"{class_def.name}#{self.serial}", policy=policy)

    @property
    def class_name(self) -> str:
        return self.class_def.name

    def __repr__(self) -> str:
        return f"<{self.class_name}#{self.serial}>"


def format_value(value: Any) -> str:
    """How PRINT renders a value (booleans in pseudocode spelling)."""
    if value is True:
        return "True"
    if value is False:
        return "False"
    if isinstance(value, float) and value.is_integer():
        return str(value)
    return str(value)
