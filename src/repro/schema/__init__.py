"""RDF Schema handling: constraint extraction and saturation (``G∞``)."""

from repro._lazy import lazy_exports

__all__ = ["IncrementalSaturator", "RDFSchema", "entails", "is_saturated", "saturate"]

__getattr__, __dir__ = lazy_exports(globals(), {
    "encoded_saturation": ("IncrementalSaturator",),
    "rdfs": ("RDFSchema",),
    "saturation": ("entails", "is_saturated", "saturate"),
})
