"""Internal argument validation shared by the device kernel modules."""

from __future__ import annotations

import numpy as np

from repro.errors import DeviceArrayError
from repro.gpu.memory import DeviceArray

#: The float dtypes kernels accept.  NumPy gives every native-order array
#: of these types one shared ``np.dtype`` object, so the fast path below
#: compares dtypes by identity.
_FLOAT32 = np.dtype(np.float32)
_FLOAT64 = np.dtype(np.float64)


def shared_float_dtype(arrays: tuple) -> np.dtype | None:
    """The fast path of the kernel operand checks, in one pass.

    Returns the operands' dtype when every operand is a live
    :class:`DeviceArray` on the first operand's device with the first
    operand's float32/float64 dtype, compared by identity; ``None``
    otherwise.  ``None`` does not mean an operand is invalid (a subclass
    or an equal but distinct dtype object also gives it): the caller then
    runs the ``require_*`` chain, which raises the precise error or
    accepts.
    """
    first = arrays[0]
    if type(first) is not DeviceArray:
        return None
    device = first.device
    dtype = first._data.dtype
    if dtype is not _FLOAT64 and dtype is not _FLOAT32:
        return None
    for a in arrays:
        if (
            type(a) is not DeviceArray
            or a._freed
            or a.device is not device
            or a._data.dtype is not dtype
        ):
            return None
    return dtype


def require_device_array(name: str, arr: object) -> DeviceArray:
    if not isinstance(arr, DeviceArray):
        raise DeviceArrayError(
            f"{name} must be a DeviceArray, got {type(arr).__name__}"
        )
    arr._check_live()
    return arr


def require_same_device(*arrays: DeviceArray) -> None:
    devices = {id(a.device) for a in arrays}
    if len(devices) > 1:
        raise DeviceArrayError("kernel arguments live on different devices")


def require_vector(name: str, arr: DeviceArray, size: int | None = None) -> None:
    if arr.ndim != 1:
        raise DeviceArrayError(f"{name} must be 1-D, got shape {arr.shape}")
    if size is not None and arr.size != size:
        raise DeviceArrayError(f"{name} must have size {size}, got {arr.size}")


def require_matrix(name: str, arr: DeviceArray, shape: tuple[int, int] | None = None) -> None:
    if arr.ndim != 2:
        raise DeviceArrayError(f"{name} must be 2-D, got shape {arr.shape}")
    if shape is not None and arr.shape != shape:
        raise DeviceArrayError(f"{name} must have shape {shape}, got {arr.shape}")


def require_float_dtype(name: str, arr: DeviceArray) -> np.dtype:
    if arr.dtype not in (np.float32, np.float64):
        raise DeviceArrayError(
            f"{name} must be float32 or float64, got {arr.dtype}"
        )
    return arr.dtype


def require_same_dtype(*arrays: DeviceArray) -> np.dtype:
    dtypes = {a.dtype for a in arrays}
    if len(dtypes) > 1:
        raise DeviceArrayError(f"mixed dtypes in kernel arguments: {dtypes}")
    return arrays[0].dtype
