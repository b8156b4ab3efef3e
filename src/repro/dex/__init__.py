"""Dalvik-text frontend: a smali-like format for ALite programs.

The paper's implementation consumes Dalvik bytecode via Soot/dexpler;
offline we cannot parse real ``.dex`` files (no Androguard), so this
package provides the closest exercisable equivalent: a register-based,
smali-flavoured textual bytecode with

* :mod:`repro.dex.descriptors` — JVM/Dalvik type descriptors
  (``Landroid/view/View;`` ↔ ``android.view.View``);
* :mod:`repro.dex.assemble` — disassembler: ALite IR → Dalvik text;
* :mod:`repro.dex.parse` — assembler/loader: Dalvik text → ALite IR,
  one scan over the lines feeding one opcode dispatch table.

The two directions round-trip (property-tested), so any app in this
repository can be exported to the text format and re-loaded, exercising
the same "bytecode → IR → analysis" path the paper's toolchain uses.
String constants round-trip too: the disassembler escapes backslash,
double quote and every line-breaking character, and the loader starts
a comment only at a ``#`` outside a string literal.
"""

from repro.dex.descriptors import descriptor_to_type, type_to_descriptor
from repro.dex.assemble import assemble_program
from repro.dex.parse import DexSyntaxError, parse_dex_text

__all__ = [
    "DexSyntaxError",
    "assemble_program",
    "descriptor_to_type",
    "parse_dex_text",
    "type_to_descriptor",
]
