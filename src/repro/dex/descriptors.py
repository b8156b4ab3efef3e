"""Dalvik type descriptors.

``Ljava/lang/String;`` ↔ ``java.lang.String``; primitives use their
single-letter codes. Nested classes keep their ``$`` (smali does too).
"""

from __future__ import annotations

from typing import Dict

_PRIMITIVE_TO_CODE: Dict[str, str] = {
    "void": "V",
    "boolean": "Z",
    "byte": "B",
    "short": "S",
    "char": "C",
    "int": "I",
    "long": "J",
    "float": "F",
    "double": "D",
}
_CODE_TO_PRIMITIVE = {v: k for k, v in _PRIMITIVE_TO_CODE.items()}


def type_to_descriptor(type_name: str) -> str:
    """``android.view.View`` → ``Landroid/view/View;``."""
    if type_name in _PRIMITIVE_TO_CODE:
        return _PRIMITIVE_TO_CODE[type_name]
    return "L" + type_name.replace(".", "/") + ";"


def descriptor_to_type(descriptor: str) -> str:
    """``Landroid/view/View;`` → ``android.view.View``."""
    if descriptor in _CODE_TO_PRIMITIVE:
        return _CODE_TO_PRIMITIVE[descriptor]
    if descriptor.startswith("L") and descriptor.endswith(";"):
        return descriptor[1:-1].replace("/", ".")
    raise ValueError(f"malformed type descriptor {descriptor!r}")


def split_method_descriptor(descriptor: str) -> tuple:
    """``(ILandroid/view/View;)V`` → (["int", "android.view.View"], "void")."""
    close = descriptor.find(")")
    if not descriptor.startswith("(") or close < 0:
        raise ValueError(f"malformed method descriptor {descriptor!r}")
    params_part = descriptor[1:close]
    return_part = descriptor[close + 1:]
    params = []
    i = 0
    while i < len(params_part):
        ch = params_part[i]
        if ch == "L":
            end = params_part.find(";", i)
            if end < 0:
                raise ValueError(
                    f"malformed parameter descriptor at {params_part[i:]!r}"
                )
            params.append(descriptor_to_type(params_part[i:end + 1]))
            i = end + 1
        elif ch in _CODE_TO_PRIMITIVE:
            params.append(_CODE_TO_PRIMITIVE[ch])
            i += 1
        else:
            raise ValueError(f"malformed parameter descriptor at {params_part[i:]!r}")
    return params, descriptor_to_type(return_part)


def join_method_descriptor(param_types, return_type: str) -> str:
    """Inverse of :func:`split_method_descriptor`."""
    return "(" + "".join(type_to_descriptor(t) for t in param_types) + ")" + (
        type_to_descriptor(return_type)
    )
