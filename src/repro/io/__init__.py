"""Input/output: JSON, text and binary columnar formats for models and synopses.

The JSON interchange format round-trips every model and synopsis exactly: it
is the format of model files, of ``build-histogram`` / ``build-wavelet``
output and of :func:`read_synopsis`, and the debugging surface.
:mod:`repro.io.binary_format` is the versioned columnar pack format, the
serving store's on-disk format, with zero-copy memory-mapped loads.
"""

from .binary_format import (
    PACK_VERSION,
    ColumnarCodec,
    SynopsisPack,
    codec_for,
    codec_kinds,
    register_codec,
)
from .text_format import (
    model_from_dict,
    model_to_dict,
    read_basic_text,
    read_model,
    read_synopsis,
    synopsis_from_dict,
    synopsis_to_dict,
    write_basic_text,
    write_model,
    write_synopsis,
)

__all__ = [
    "ColumnarCodec",
    "SynopsisPack",
    "PACK_VERSION",
    "register_codec",
    "codec_for",
    "codec_kinds",
    "model_to_dict",
    "model_from_dict",
    "write_model",
    "read_model",
    "read_basic_text",
    "write_basic_text",
    "synopsis_to_dict",
    "synopsis_from_dict",
    "write_synopsis",
    "read_synopsis",
]
