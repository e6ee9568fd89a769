#ifndef KEYSTONE_COMMON_KERNEL_ALIGN_H_
#define KEYSTONE_COMMON_KERNEL_ALIGN_H_

/// Starts a hot kernel's machine code on a 64-byte boundary. Without it the
/// kernel's offset within its fetch block follows the size of whatever code
/// the linker places ahead of it, so deleting unrelated code elsewhere moves
/// the inner loops and shows up as a wall-clock change the kernel's own
/// code never made. Marks the linear-algebra kernels a fit spends its time
/// in (the dense kernels, the shared SYRK tile and the CSR Gram,
/// SparseMatrix::Gram, all in src/linalg), the per-record linear models
/// the apply and serving paths run (LinearMapModel::Apply and
/// SparseLinearMapModel::Apply, in src/solvers), the GMM E and M steps
/// and Fisher encoder (src/ops/gmm.cc), and the dense SIFT kernel that
/// most ImageNet apply and serving time goes to (DenseSift::Apply, in
/// src/ops/image_ops.cc).
#define KS_KERNEL_ALIGN __attribute__((aligned(64)))

#endif  // KEYSTONE_COMMON_KERNEL_ALIGN_H_
