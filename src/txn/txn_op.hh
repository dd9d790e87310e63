/**
 * @file
 * lp::txn operation types, shared by TxnKv, the PREPARE table and
 * the server's TXN wire op (server/protocol.hh re-exports TxnOp and
 * TxnRead: the Kind values ARE the wire encoding).
 */

#ifndef LP_TXN_TXN_OP_HH
#define LP_TXN_TXN_OP_HH

#include <cstddef>
#include <cstdint>

namespace lp::txn
{

/** Op cap per transaction, and so per (shard, transaction)
 *  write-set: any transaction fits one PREPARE slot per shard. */
inline constexpr std::size_t maxTxnWriteOps = 32;

/** One sub-op of a transaction. */
struct TxnOp
{
    enum class Kind : std::uint8_t
    {
        Get = 1,
        Put = 2,
        Del = 3,
        Add = 4,  ///< atomic delta (wrapping u64; absent key reads 0)
    };
    Kind kind = Kind::Get;
    std::uint64_t key = 0;
    std::uint64_t value = 0;  ///< Put: value; Add: delta; else unused
};

/** One Get result of a committed transaction. */
struct TxnRead
{
    bool found = false;
    std::uint64_t value = 0;
};

/** One resolved write of a transaction's write-set. */
struct WriteOp
{
    std::uint64_t key = 0;
    std::uint64_t value = 0;
    bool del = false;
};

} // namespace lp::txn

#endif // LP_TXN_TXN_OP_HH
