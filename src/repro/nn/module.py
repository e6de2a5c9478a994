"""Module (layer container) abstraction mirroring ``torch.nn.Module``.

Modules register parameters and sub-modules automatically through attribute
assignment, and expose ``state_dict`` / ``load_state_dict`` for check-pointing
— which the Reduce framework relies on to reset a model to its pre-trained
weights before retraining it for each faulty chip.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor.

    Modules register parameters automatically so that optimizers and the
    fault-aware masking machinery can discover them by name.
    """


class Module:
    """Base class for all neural-network modules."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())

    # -- attribute registration ---------------------------------------------

    def __setattr__(self, name: str, value: Any) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._modules.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
        else:
            # Plain attribute; drop any stale registration under the same name.
            self._parameters.pop(name, None)
            self._modules.pop(name, None)
        object.__setattr__(self, name, value)

    def add_module(self, name: str, module: "Module") -> None:
        setattr(self, name, module)

    # -- traversal -----------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for module_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{module_name}.")

    def parameters(self) -> List[Parameter]:
        return [param for _, param in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for module_name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{module_name}.")

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    # -- state dict -----------------------------------------------------------

    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Return a flat name → array copy of all parameters."""
        state: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameters from a ``state_dict``.

        With ``strict=True`` missing or unexpected keys raise ``KeyError``.
        """
        own_params = dict(self.named_parameters())
        expected = set(own_params)
        provided = set(state)
        if strict:
            missing = expected - provided
            unexpected = provided - expected
            if missing or unexpected:
                raise KeyError(
                    f"state_dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
                )
        for name, param in own_params.items():
            if name not in state:
                continue
            value = np.asarray(state[name])
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: checkpoint {value.shape} vs model {param.data.shape}"
                )
            param.data = value.astype(param.data.dtype, copy=True)

    # -- misc ------------------------------------------------------------------

    def extra_repr(self) -> str:
        return ""

    def __repr__(self) -> str:
        lines = [f"{type(self).__name__}({self.extra_repr()}"]
        children = list(self._modules.items())
        if not children:
            return lines[0] + ")"
        for name, module in children:
            child_repr = repr(module).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child_repr}")
        lines.append(")")
        return "\n".join(lines)


class Sequential(Module):
    """A module holding sub-modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for index, module in enumerate(modules):
            self.add_module(str(index), module)

    def __len__(self) -> int:
        return len(self._modules)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]
